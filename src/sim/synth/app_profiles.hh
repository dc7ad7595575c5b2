/**
 * @file
 * Preset application profiles standing in for the paper's traces.
 *
 * The paper validated its model with ATUM-2 traces of three parallel
 * applications on a four-CPU VAX 8350 (POPS, THOR, PERO) plus an
 * eight-CPU PERO trace. Those traces are not available; these profiles
 * are synthetic applications whose *measured* workload parameters land
 * in the same regions of the paper's Table 7 ranges:
 *
 *  - "pops-like": moderate sharing with fine-grain critical sections
 *    (parallel OPS5 rule system: shared working memory);
 *  - "thor-like": low sharing, long private phases (parallel logic
 *    simulator partitioned by circuit region);
 *  - "pero-like": higher sharing with contended queues (parallel
 *    microcode placement tool with a shared work list).
 */

#ifndef SWCC_SIM_SYNTH_APP_PROFILES_HH
#define SWCC_SIM_SYNTH_APP_PROFILES_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/synth/workload_config.hh"

namespace swcc
{

/** Identifier of a preset profile. */
enum class AppProfile : std::uint8_t
{
    PopsLike,
    ThorLike,
    PeroLike,
};

/** All profiles, for iteration. */
inline constexpr std::array<AppProfile, 3> kAllProfiles = {
    AppProfile::PopsLike, AppProfile::ThorLike, AppProfile::PeroLike,
};

/** Name of a profile ("pops-like", ...). */
std::string_view profileName(AppProfile profile);

/**
 * Parses a profile name in any case: a profileName(), or one of the
 * aliases pops, thor and pero. swcc and proto_check both parse with
 * this.
 *
 * @return The profile, or std::nullopt for any other name.
 */
std::optional<AppProfile> parseProfile(std::string_view name);

/**
 * Builds the generator configuration for a profile.
 *
 * @param profile Which application to imitate.
 * @param cpus Number of processors.
 * @param instructions_per_cpu Trace length per processor.
 * @param seed RNG seed (different seeds give different but
 *        statistically identical traces).
 * @param emit_flushes Software-Flush style trace with flush events.
 */
SyntheticWorkloadConfig profileConfig(AppProfile profile, unsigned cpus,
                                      std::size_t instructions_per_cpu,
                                      std::uint64_t seed = 1,
                                      bool emit_flushes = false);

} // namespace swcc

#endif // SWCC_SIM_SYNTH_APP_PROFILES_HH
