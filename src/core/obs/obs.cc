#include "core/obs/obs.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace swcc::obs
{

namespace
{

std::mutex state_mutex;
std::string pending_metrics_out;
std::string pending_trace_json;
std::vector<std::function<void()>> finalize_hooks;

std::string
envString(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string();
}

bool
envFlag(const char *name)
{
    std::string value = envString(name);
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return value == "1" || value == "true" || value == "yes" ||
           value == "on";
}

} // namespace

CliConfig
envConfig()
{
    CliConfig config;
    config.metricsOut = envString("SWCC_METRICS_OUT");
    config.traceJson = envString("SWCC_TRACE_JSON");
    config.progress = envFlag("SWCC_PROGRESS");
    config.logLevel = envString("SWCC_LOG_LEVEL");
    return config;
}

void
applyCli(const CliConfig &config)
{
    if (!config.logLevel.empty()) {
        const auto level = parseLogLevel(config.logLevel);
        if (!level.has_value()) {
            throw std::invalid_argument(
                "unknown log level '" + config.logLevel +
                "' (expected trace, debug, info, warn, error, off)");
        }
        setLogLevel(*level);
    }
    setProgressEnabled(config.progress);
    if (!config.traceJson.empty()) {
        tracer().setEnabled(true);
    }
    std::lock_guard<std::mutex> lock(state_mutex);
    pending_metrics_out = config.metricsOut;
    pending_trace_json = config.traceJson;
}

void
consumeArgs(int &argc, char **argv)
{
    CliConfig config = envConfig();
    std::vector<char *> kept;
    kept.reserve(static_cast<std::size_t>(argc));

    const auto match = [&](int &i, std::string_view flag,
                           std::string *value) -> bool {
        const std::string_view arg = argv[i];
        if (value == nullptr) {
            return arg == flag;
        }
        if (arg.size() > flag.size() + 1 &&
            arg.substr(0, flag.size()) == flag &&
            arg[flag.size()] == '=') {
            *value = std::string(arg.substr(flag.size() + 1));
            return true;
        }
        if (arg == flag) {
            if (i + 1 >= argc) {
                throw std::invalid_argument(std::string(flag) +
                                            " needs a value");
            }
            *value = argv[++i];
            return true;
        }
        return false;
    };

    for (int i = 0; i < argc; ++i) {
        if (match(i, "--metrics-out", &config.metricsOut) ||
            match(i, "--trace-json", &config.traceJson) ||
            match(i, "--log-level", &config.logLevel)) {
            continue;
        }
        if (match(i, "--progress", nullptr)) {
            config.progress = true;
            continue;
        }
        kept.push_back(argv[i]);
    }

    argc = static_cast<int>(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
        argv[i] = kept[i];
    }
    argv[kept.size()] = nullptr;

    applyCli(config);
}

void
addFinalizeHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(state_mutex);
    finalize_hooks.push_back(std::move(hook));
}

void
finalize()
{
    std::string metricsOut;
    std::string traceJson;
    std::vector<std::function<void()>> hooks;
    {
        std::lock_guard<std::mutex> lock(state_mutex);
        metricsOut = std::move(pending_metrics_out);
        traceJson = std::move(pending_trace_json);
        pending_metrics_out.clear();
        pending_trace_json.clear();
        hooks = finalize_hooks;
    }
    if (metricsOut.empty() && traceJson.empty()) {
        return;
    }
    for (const auto &hook : hooks) {
        hook();
    }
    if (!metricsOut.empty()) {
        writeMetricsFile(metricsOut);
        SWCC_LOG_INFO("wrote metrics to " + metricsOut);
    }
    if (!traceJson.empty()) {
        writeChromeTraceFile(traceJson);
        SWCC_LOG_INFO("wrote Chrome trace to " + traceJson +
                      " (open in https://ui.perfetto.dev)");
    }
}

} // namespace swcc::obs
