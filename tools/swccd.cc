/**
 * @file
 * swccd — the model-as-a-service daemon (see src/service/daemon.hh
 * and DESIGN §10).
 *
 * Usage:
 *   swccd --socket PATH [--workers N] [--batch-max K]
 *         [--max-connections N] [--max-bus-processors N]
 *         [--max-network-stages N] [--metrics-out PATH] ...
 *
 * Loads the cost tables once, binds the unix socket, prints a ready
 * line, and serves until SIGINT/SIGTERM triggers a graceful drain.
 * On exit it prints a final scrape (the Prometheus text exposition
 * the Scrape request serves) and writes the observability artifacts
 * (--metrics-out / --trace-json). The --metrics-out file holds the
 * process registry, as for a CLI run: solver.*, service.kernel.* and
 * pool metrics. The daemon's own service.* totals and histograms live
 * in the scrape only. The daemon keeps no memo: every query is solved.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "core/obs/obs.hh"
#include "service/daemon.hh"

namespace
{

swcc::service::ServiceDaemon *g_daemon = nullptr;
int g_signal_pipe[2] = {-1, -1};

extern "C" void
handleSignal(int sig)
{
    if (sig == SIGUSR1) {
        // Flight-recorder dump request: just relay the byte; the
        // main thread does the (non-signal-safe) file write.
        const char byte = 'u';
        [[maybe_unused]] const ssize_t n =
            ::write(g_signal_pipe[1], &byte, 1);
        return;
    }
    if (g_daemon != nullptr) {
        g_daemon->requestStop();
    }
    const char byte = 's';
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &byte, 1);
}

int
usage(std::ostream &out, int code)
{
    out << "usage: swccd --socket PATH [--workers N] [--batch-max K]\n"
           "             [--max-connections N] "
           "[--max-bus-processors N]\n"
           "             [--max-network-stages N] [--metrics-out "
           "PATH]\n"
           "             [--trace-json PATH] [--log-level LEVEL]\n"
           "             [--slow-query-us N] [--flight-records N]\n"
           "             [--flight-recorder-out PATH]\n"
           "\n"
           "SIGUSR1 dumps the flight recorder (last N completed\n"
           "requests) to --flight-recorder-out (default\n"
           "<socket>.flight.json) without disturbing service.\n";
    return code;
}

unsigned
parseUnsigned(const std::string &flag, const std::string &value)
{
    std::size_t end = 0;
    unsigned long parsed = 0;
    try {
        parsed = std::stoul(value, &end);
    } catch (const std::exception &) {
        end = 0;
    }
    if (end != value.size() || parsed == 0 || parsed > 1u << 20) {
        throw std::invalid_argument(flag + " needs a positive count, "
                                    "got '" + value + "'");
    }
    return static_cast<unsigned>(parsed);
}

} // namespace

int
main(int argc, char **argv)
{
    using swcc::service::DaemonConfig;
    using swcc::service::ServiceDaemon;

    try {
        swcc::obs::consumeArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 2;
    }

    DaemonConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const std::string &flag) {
            if (i + 1 >= argc) {
                throw std::invalid_argument(flag +
                                            " needs a value");
            }
            return std::string(argv[++i]);
        };
        try {
            if (arg == "--socket") {
                config.socketPath = value(arg);
            } else if (arg == "--workers") {
                config.workers = parseUnsigned(arg, value(arg));
            } else if (arg == "--batch-max") {
                config.batchMax = parseUnsigned(arg, value(arg));
            } else if (arg == "--max-connections") {
                config.maxConnections =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--max-bus-processors") {
                config.limits.maxBusProcessors =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--max-network-stages") {
                config.limits.maxNetworkStages =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--slow-query-us") {
                config.slowQueryUs = parseUnsigned(arg, value(arg));
            } else if (arg == "--flight-records") {
                config.flightRecords =
                    parseUnsigned(arg, value(arg));
            } else if (arg == "--flight-recorder-out") {
                config.flightRecorderPath = value(arg);
            } else if (arg == "--help" || arg == "-h") {
                return usage(std::cout, 0);
            } else {
                std::cerr << "swccd: unknown flag " << arg << "\n";
                return usage(std::cerr, 2);
            }
        } catch (const std::exception &e) {
            std::cerr << "swccd: " << e.what() << "\n";
            return 2;
        }
    }
    if (config.socketPath.empty()) {
        std::cerr << "swccd: --socket is required\n";
        return usage(std::cerr, 2);
    }

    std::optional<ServiceDaemon> built;
    try {
        built.emplace(std::move(config));
    } catch (const std::invalid_argument &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 2;
    }
    ServiceDaemon &daemon = *built;

    if (::pipe(g_signal_pipe) != 0) {
        std::cerr << "swccd: cannot create signal pipe\n";
        return 1;
    }
    try {
        daemon.start();
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 1;
    }
    g_daemon = &daemon;

    struct sigaction action = {};
    action.sa_handler = handleSignal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGUSR1, &action, nullptr);

    // The ready line tooling waits for (flushed before blocking).
    std::cout << "swccd: listening on " << daemon.config().socketPath
              << std::endl;

    // Park until a signal arrives (EINTR or a byte on the pipe).
    // SIGUSR1 ('u') dumps the flight recorder and keeps serving;
    // anything else starts the drain.
    for (;;) {
        struct pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
        const int rc = ::poll(&pfd, 1, -1);
        if (rc < 0 && errno == EINTR) {
            continue;
        }
        if (rc <= 0) {
            break;
        }
        char byte = 0;
        if (::read(g_signal_pipe[0], &byte, 1) <= 0) {
            break;
        }
        if (byte == 'u') {
            try {
                std::cout << "swccd: flight recorder dumped to "
                          << daemon.dumpFlightRecorder()
                          << std::endl;
            } catch (const std::exception &e) {
                std::cerr << "swccd: flight-recorder dump failed: "
                          << e.what() << "\n";
            }
            continue;
        }
        break;
    }

    g_daemon = nullptr;
    daemon.stop();
    std::cout << daemon.scrapeText() << std::flush;
    try {
        swcc::obs::finalize();
    } catch (const std::exception &e) {
        std::cerr << "swccd: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
