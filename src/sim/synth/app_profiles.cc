#include "sim/synth/app_profiles.hh"

#include <stdexcept>
#include <utility>

#include "core/types.hh"

namespace swcc
{

std::string_view
profileName(AppProfile profile)
{
    switch (profile) {
      case AppProfile::PopsLike: return "pops-like";
      case AppProfile::ThorLike: return "thor-like";
      case AppProfile::PeroLike: return "pero-like";
    }
    return "unknown";
}

std::optional<AppProfile>
parseProfile(std::string_view name)
{
    constexpr std::pair<std::string_view, AppProfile> kAliases[] = {
        {"pops", AppProfile::PopsLike},
        {"thor", AppProfile::ThorLike},
        {"pero", AppProfile::PeroLike},
    };
    for (AppProfile profile : kAllProfiles) {
        if (equalsIgnoringCase(name, profileName(profile))) {
            return profile;
        }
    }
    for (const auto &[alias, profile] : kAliases) {
        if (equalsIgnoringCase(name, alias)) {
            return profile;
        }
    }
    return std::nullopt;
}

SyntheticWorkloadConfig
profileConfig(AppProfile profile, unsigned cpus,
              std::size_t instructions_per_cpu, std::uint64_t seed,
              bool emit_flushes)
{
    SyntheticWorkloadConfig config;
    config.numCpus = cpus;
    config.instructionsPerCpu = instructions_per_cpu;
    config.seed = seed;
    config.emitFlushes = emit_flushes;
    config.name = std::string(profileName(profile));

    switch (profile) {
      case AppProfile::PopsLike:
        // Rule system over a shared working memory: medium sharing,
        // fine-grain sections, read-mostly shared data.
        config.ls = 0.32;
        config.shd = 0.20;
        config.wrShared = 0.45;
        config.readOnlyCsFraction = 0.50;
        config.codeBytes = 64 * 1024;
        config.privateBytes = 192 * 1024;
        config.privateParetoAlpha = 0.52;
        config.codeParetoAlpha = 0.66;
        config.sharedBytes = 48 * 1024;
        config.regionBlocks = 4;
        config.csDataRefs = 24;
        config.regionZipf = 0.6;
        config.lockFraction = 0.35;
        break;
      case AppProfile::ThorLike:
        // Partitioned logic simulator: little sharing, long private
        // phases, larger private working set.
        config.ls = 0.27;
        config.shd = 0.09;
        config.wrShared = 0.40;
        config.readOnlyCsFraction = 0.55;
        config.codeBytes = 96 * 1024;
        config.privateBytes = 384 * 1024;
        config.privateParetoAlpha = 0.46;
        config.codeParetoAlpha = 0.62;
        config.sharedBytes = 32 * 1024;
        config.regionBlocks = 3;
        config.csDataRefs = 40;
        config.regionZipf = 0.3;
        config.lockFraction = 0.2;
        break;
      case AppProfile::PeroLike:
        // Shared work-list tool: heavier sharing, contended queues,
        // write-richer shared accesses.
        config.ls = 0.35;
        config.shd = 0.30;
        config.wrShared = 0.60;
        config.readOnlyCsFraction = 0.45;
        config.codeBytes = 48 * 1024;
        config.privateBytes = 128 * 1024;
        config.privateParetoAlpha = 0.56;
        config.codeParetoAlpha = 0.70;
        config.sharedBytes = 64 * 1024;
        config.regionBlocks = 6;
        config.csDataRefs = 30;
        config.regionZipf = 0.8;
        config.lockFraction = 0.45;
        break;
      default:
        throw std::invalid_argument("unknown AppProfile");
    }
    return config;
}

} // namespace swcc
