#include "core/campaign/faults.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "core/campaign/cell_hash.hh"
#include "core/obs/metrics.hh"

namespace swcc::campaign
{

namespace
{

enum class Mode : std::uint8_t
{
    Off,
    Count,       ///< Fail ops [skip, skip + count).
    Probability, ///< Fail when hash(seed, site, op) < threshold.
};

struct SiteRule
{
    Mode mode = Mode::Off;
    std::uint64_t count = 0;
    std::uint64_t skip = 0;
    std::uint64_t threshold = 0; ///< Probability mode, out of 2^32.
};

struct SiteState
{
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> injected{0};
};

std::mutex config_mutex;
std::array<SiteRule, kNumFaultSites> rules;
std::array<SiteState, kNumFaultSites> states;
std::atomic<bool> any_active{false};
std::atomic<bool> env_checked{false};
std::uint64_t fault_seed = 1;

std::size_t
siteIndex(FaultSite site)
{
    return static_cast<std::size_t>(site);
}

FaultSite
siteFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        if (faultSiteName(site) == name) {
            return site;
        }
    }
    throw std::invalid_argument(
        "unknown fault site '" + std::string(name) +
        "' (expected trace-io, solver-bus, solver-net, task-kill, "
        "or task-timeout)");
}

std::uint64_t
parseUnsigned(std::string_view text, std::string_view what)
{
    if (text.empty()) {
        throw std::invalid_argument("fault spec: empty " +
                                    std::string(what));
    }
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') {
            throw std::invalid_argument(
                "fault spec: bad " + std::string(what) + " '" +
                std::string(text) + "'");
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
}

/** Parses one `site:count[@skip]` or `site:P%` entry into rules. */
void
parseEntry(std::string_view entry)
{
    const auto colon = entry.find(':');
    if (colon == std::string_view::npos) {
        throw std::invalid_argument(
            "fault spec entry '" + std::string(entry) +
            "' needs site:count");
    }
    const FaultSite site = siteFromName(entry.substr(0, colon));
    std::string_view tail = entry.substr(colon + 1);

    SiteRule rule;
    if (!tail.empty() && tail.back() == '%') {
        const std::uint64_t percent =
            parseUnsigned(tail.substr(0, tail.size() - 1), "percent");
        if (percent > 100) {
            throw std::invalid_argument(
                "fault spec: probability above 100%");
        }
        rule.mode = Mode::Probability;
        rule.threshold = (percent << 32) / 100;
    } else {
        std::string_view count_text = tail;
        const auto at = tail.find('@');
        if (at != std::string_view::npos) {
            count_text = tail.substr(0, at);
            rule.skip = parseUnsigned(tail.substr(at + 1), "skip");
        }
        rule.mode = Mode::Count;
        rule.count = parseUnsigned(count_text, "count");
    }
    rules[siteIndex(site)] = rule;
}

/** The obs counter mirroring a site's injected count. */
obs::Counter &
siteCounter(FaultSite site)
{
    static std::array<obs::Counter *, kNumFaultSites> counters = [] {
        std::array<obs::Counter *, kNumFaultSites> out{};
        for (std::size_t i = 0; i < kNumFaultSites; ++i) {
            out[i] = &obs::metrics().counter(
                "fault.injected." +
                std::string(faultSiteName(static_cast<FaultSite>(i))));
        }
        return out;
    }();
    return *counters[siteIndex(site)];
}

/** Loads SWCC_FAULT_INJECT / SWCC_FAULT_SEED exactly once. */
void
ensureEnvConfig()
{
    if (env_checked.load(std::memory_order_acquire)) {
        return;
    }
    std::lock_guard<std::mutex> lock(config_mutex);
    if (env_checked.load(std::memory_order_relaxed)) {
        return;
    }
    const char *spec = std::getenv("SWCC_FAULT_INJECT");
    if (spec != nullptr && *spec != '\0') {
        std::uint64_t seed = 1;
        if (const char *seed_env = std::getenv("SWCC_FAULT_SEED")) {
            seed = parseUnsigned(seed_env, "SWCC_FAULT_SEED");
        }
        std::string text(spec);
        std::size_t begin = 0;
        while (begin <= text.size()) {
            const auto end = text.find(',', begin);
            const auto len = (end == std::string::npos
                ? text.size() : end) - begin;
            if (len > 0) {
                parseEntry(std::string_view(text).substr(begin, len));
            }
            if (end == std::string::npos) {
                break;
            }
            begin = end + 1;
        }
        fault_seed = seed;
        any_active.store(true, std::memory_order_relaxed);
    }
    env_checked.store(true, std::memory_order_release);
}

[[noreturn]] void
throwFor(FaultSite site, std::uint64_t op)
{
    const std::string what = "injected fault: " +
        std::string(faultSiteName(site)) + " (operation " +
        std::to_string(op) + ")";
    switch (site) {
      case FaultSite::TraceIo:
        throw InjectedIoFailure(what);
      case FaultSite::SolverBus:
      case FaultSite::SolverNet:
        throw SolverNonConvergence(what);
      case FaultSite::TaskKill:
        throw TaskKilled(what);
      case FaultSite::TaskTimeout:
        throw TaskTimeoutError(what);
    }
    throw std::runtime_error(what); // Unreachable.
}

} // namespace

std::string_view
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::TraceIo:     return "trace-io";
      case FaultSite::SolverBus:   return "solver-bus";
      case FaultSite::SolverNet:   return "solver-net";
      case FaultSite::TaskKill:    return "task-kill";
      case FaultSite::TaskTimeout: return "task-timeout";
    }
    return "?";
}

void
configureFaults(const std::string &spec, std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(config_mutex);
    for (SiteRule &rule : rules) {
        rule = SiteRule{};
    }
    for (SiteState &state : states) {
        state.ops.store(0, std::memory_order_relaxed);
    }
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        const auto end = spec.find(',', begin);
        const auto len =
            (end == std::string::npos ? spec.size() : end) - begin;
        if (len > 0) {
            parseEntry(std::string_view(spec).substr(begin, len));
        }
        if (end == std::string::npos) {
            break;
        }
        begin = end + 1;
    }
    fault_seed = seed;
    bool active = false;
    for (const SiteRule &rule : rules) {
        active = active || rule.mode != Mode::Off;
    }
    any_active.store(active, std::memory_order_relaxed);
    env_checked.store(true, std::memory_order_release);
}

void
clearFaults()
{
    configureFaults(std::string(), 1);
}

bool
faultsActive()
{
    ensureEnvConfig();
    return any_active.load(std::memory_order_relaxed);
}

void
checkFault(FaultSite site)
{
    if (!env_checked.load(std::memory_order_acquire)) {
        ensureEnvConfig();
    }
    if (!any_active.load(std::memory_order_relaxed)) {
        return;
    }
    SiteState &state = states[siteIndex(site)];
    const SiteRule rule = [&] {
        std::lock_guard<std::mutex> lock(config_mutex);
        return rules[siteIndex(site)];
    }();
    if (rule.mode == Mode::Off) {
        return;
    }
    const std::uint64_t op =
        state.ops.fetch_add(1, std::memory_order_relaxed);
    bool fire = false;
    if (rule.mode == Mode::Count) {
        fire = op >= rule.skip && op < rule.skip + rule.count;
    } else {
        // Deterministic per (seed, site, op): mix into 64 bits and
        // compare the top 32 against the threshold.
        struct
        {
            std::uint64_t seed;
            std::uint64_t site;
            std::uint64_t op;
        } key{fault_seed, siteIndex(site), op};
        const std::uint64_t hash =
            fnv1a64(&key, sizeof key, 0xcbf29ce484222325ull);
        fire = (hash >> 32) < rule.threshold;
    }
    if (!fire) {
        return;
    }
    state.injected.fetch_add(1, std::memory_order_relaxed);
    siteCounter(site).add(1);
    throwFor(site, op);
}

std::uint64_t
injectedCount(FaultSite site)
{
    return states[siteIndex(site)].injected.load(
        std::memory_order_relaxed);
}

} // namespace swcc::campaign
