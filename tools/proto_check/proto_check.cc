/**
 * @file
 * proto_check: protocol-conformance checker for the CI matrix.
 *
 * Replays one trace — synthetic by default, or a file given with
 * --trace — under two coherence schemes and checks the invariants that
 * must hold between any pair of protocols on the same reference
 * stream:
 *
 *  - snoop-path identity: for each scheme, the optimized directory
 *    path and the retained reference scan produce byte-identical
 *    serialized statistics;
 *  - stream identity: both schemes execute the same per-processor
 *    instruction and data-reference counts (protocols decide costs,
 *    never what the program does);
 *  - miss accounting versus Base: an update-based protocol (Dragon)
 *    never invalidates, so its miss counts equal Base's exactly; an
 *    invalidate-based protocol (MESI family, hybrid) can only add
 *    coherence misses on top of Base's;
 *  - cross-cache coherence invariants hold in the final cache state
 *    (single owner, exclusivity, sharer-index consistency).
 *
 * Exits 0 when every check passes, 1 on any violation, 2 on usage
 * errors — so a CI job can run scheme pairs and gate on the result.
 */

#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache/coherence.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_io.hh"

namespace
{

using namespace swcc;

struct CheckOptions
{
    Scheme schemeA = Scheme::Dragon;
    Scheme schemeB = Scheme::Mesi;
    std::string tracePath;
    AppProfile profile = AppProfile::PeroLike;
    unsigned cpus = 8;
    unsigned instructions = 20'000;
    unsigned seed = 17;
};

Scheme
schemeFromName(const std::string &name)
{
    if (const auto scheme = parseScheme(name)) {
        return *scheme;
    }
    throw std::invalid_argument(
        "unknown scheme '" + name +
        "' (expected base, no-cache, software-flush, dragon, mesi, "
        "mesif, moesi, or adaptive-hybrid)");
}

AppProfile
profileFromName(const std::string &name)
{
    if (const auto profile = parseProfile(name)) {
        return *profile;
    }
    throw std::invalid_argument(
        "unknown profile '" + name +
        "' (expected pops-like, thor-like, or pero-like)");
}

/**
 * True for protocols that keep caches consistent in hardware; only
 * these satisfy checkCoherenceInvariants. The software schemes (Base,
 * Software-Flush, No-Cache) tolerate stale copies by design.
 */
bool
hardwareCoherent(Scheme scheme)
{
    return scheme == Scheme::Dragon || scheme == Scheme::Mesi ||
        scheme == Scheme::Mesif || scheme == Scheme::Moesi ||
        scheme == Scheme::Hybrid;
}

/** True for protocols that invalidate copies (can add misses). */
bool
invalidatesCopies(Scheme scheme)
{
    return scheme == Scheme::Mesi || scheme == Scheme::Mesif ||
        scheme == Scheme::Moesi || scheme == Scheme::Hybrid;
}

/**
 * True for schemes whose cache residency matches Base's on any trace:
 * fills on miss, never invalidates, never bypasses the cache.
 */
bool
missesMatchBase(Scheme scheme)
{
    return scheme == Scheme::Base || scheme == Scheme::Dragon;
}

int
usage(std::ostream &os)
{
    os << "usage: proto_check --scheme-a A --scheme-b B [options]\n"
          "  --trace FILE         replay FILE (.swcc binary or text)\n"
          "  --profile NAME       synthetic profile "
          "(default pero-like)\n"
          "  --cpus N             processors (default 8)\n"
          "  --instructions N     per-cpu instructions "
          "(default 20000)\n"
          "  --seed S             generator seed (default 17)\n";
    return 2;
}

CheckOptions
parseArgs(int argc, char **argv)
{
    CheckOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--scheme-a") {
            options.schemeA = schemeFromName(value());
        } else if (arg == "--scheme-b") {
            options.schemeB = schemeFromName(value());
        } else if (arg == "--trace") {
            options.tracePath = value();
        } else if (arg == "--profile") {
            options.profile = profileFromName(value());
        } else if (arg == "--cpus") {
            options.cpus = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--instructions") {
            options.instructions =
                static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--seed") {
            options.seed = static_cast<unsigned>(std::stoul(value()));
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (options.cpus == 0) {
        throw std::invalid_argument("--cpus must be positive");
    }
    return options;
}

class Checker
{
  public:
    bool
    check(const std::string &label, bool ok, const std::string &detail)
    {
        std::cout << (ok ? "ok   " : "FAIL ") << label;
        if (!ok && !detail.empty()) {
            std::cout << ": " << detail;
        }
        std::cout << '\n';
        allOk_ = allOk_ && ok;
        return ok;
    }

    bool allOk() const { return allOk_; }

  private:
    bool allOk_ = true;
};

/** Runs @p scheme on @p path; returns stats after an invariant check. */
SimStats
runScheme(Scheme scheme, const TraceBuffer &trace,
          const CacheConfig &cache, const SharedClassifier &shared,
          SnoopPath path, Checker &checker)
{
    MultiprocessorSystem system(scheme, cache, trace.numCpus(), shared);
    system.setSnoopPath(path);
    const SimStats stats = system.run(trace);
    if (hardwareCoherent(scheme)) {
        const std::string label = std::string(schemeName(scheme)) +
            ": final coherence invariants (" +
            (system.protocol().snoopPath() == SnoopPath::Directory
                 ? "directory"
                 : "reference-scan") +
            ")";
        try {
            checkCoherenceInvariants(system.protocol());
            checker.check(label, true, "");
        } catch (const std::exception &error) {
            checker.check(label, false, error.what());
        }
    }
    return stats;
}

std::uint64_t
totalMissOps(const SimStats &stats)
{
    std::uint64_t misses = 0;
    for (Operation op : kAllOperations) {
        if (isMiss(op)) {
            misses += stats.opCount(op);
        }
    }
    return misses;
}

} // namespace

int
main(int argc, char **argv)
{
    CheckOptions options;
    try {
        options = parseArgs(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n\n";
        return usage(std::cerr);
    }

    TraceBuffer trace;
    SharedClassifier shared;
    try {
        if (!options.tracePath.empty()) {
            trace = loadTrace(options.tracePath);
            shared = [](Addr addr) {
                return addr >= SyntheticWorkloadConfig::kSharedBase;
            };
        } else {
            const SyntheticWorkloadConfig workload = profileConfig(
                options.profile, options.cpus, options.instructions,
                options.seed, false);
            trace = generateTrace(workload);
            shared = workload.sharedClassifier();
        }
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;

    Checker checker;
    std::cout << "proto_check: " << schemeName(options.schemeA)
              << " vs " << schemeName(options.schemeB) << " on "
              << trace.size() << " events, "
              << unsigned{trace.numCpus()} << " cpus\n";

    // Snoop-path identity per scheme, on the reference-scan stats.
    // Each side fills its own slot, so a scheme paired with itself
    // fills both.
    SimStats statsA;
    SimStats statsB;
    const std::pair<Scheme, SimStats *> sides[] = {
        {options.schemeA, &statsA}, {options.schemeB, &statsB}};
    for (const auto &[scheme, slot] : sides) {
        const SimStats scan = runScheme(scheme, trace, cache, shared,
                                        SnoopPath::ReferenceScan,
                                        checker);
        const SimStats directory = runScheme(scheme, trace, cache,
                                             shared,
                                             SnoopPath::Directory,
                                             checker);
        checker.check(
            std::string(schemeName(scheme)) +
                ": directory and reference-scan stats byte-identical",
            scan.serialize() == directory.serialize(),
            "serialized statistics differ between snoop paths");
        *slot = scan;
    }

    // Stream identity: what the program did is protocol-independent.
    bool streams_equal = statsA.perCpu.size() == statsB.perCpu.size();
    std::string stream_detail;
    for (std::size_t cpu = 0;
         streams_equal && cpu < statsA.perCpu.size(); ++cpu) {
        const CpuStats &a = statsA.perCpu[cpu];
        const CpuStats &b = statsB.perCpu[cpu];
        if (a.instructions != b.instructions ||
            a.dataRefs != b.dataRefs || a.flushes != b.flushes) {
            streams_equal = false;
            stream_detail = "cpu " + std::to_string(cpu) +
                " executed a different stream";
        }
    }
    checker.check("per-cpu instruction/data-reference counts match",
                  streams_equal, stream_detail);

    // Miss accounting versus Base on the same trace.
    const SimStats base = [&] {
        MultiprocessorSystem system(Scheme::Base, cache,
                                    trace.numCpus(), shared);
        return system.run(trace);
    }();
    for (const SimStats *stats : {&statsA, &statsB}) {
        const Scheme scheme = stats->scheme;
        const std::string name(stats->protocolName);
        if (missesMatchBase(scheme)) {
            checker.check(
                name + ": miss counts equal Base's (never "
                       "invalidates)",
                stats->dataMisses == base.dataMisses &&
                    stats->instrMisses == base.instrMisses,
                "data " + std::to_string(stats->dataMisses) + " vs " +
                    std::to_string(base.dataMisses) + ", instr " +
                    std::to_string(stats->instrMisses) + " vs " +
                    std::to_string(base.instrMisses));
        } else if (invalidatesCopies(scheme)) {
            checker.check(
                name + ": misses only ever added versus Base "
                       "(coherence misses)",
                totalMissOps(*stats) >= totalMissOps(base),
                std::to_string(totalMissOps(*stats)) + " < " +
                    std::to_string(totalMissOps(base)));
        }
    }

    if (!checker.allOk()) {
        std::cout << "proto_check: FAILED\n";
        return 1;
    }
    std::cout << "proto_check: all invariants hold\n";
    return 0;
}
