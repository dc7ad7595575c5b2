/**
 * @file
 * perfbench_workload: one workload of the benchmark in its own
 * process. run.py launches it; see perfbench/README.md.
 *
 *   perfbench_workload --workload NAME --seed N --seconds S --trace 0|1
 *                      --run-dir DIR --bin-dir DIR [--setup-only]
 */

#include <csignal>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hh"

namespace
{

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return std::string(argv[++i]);
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            opts.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opts.seconds = std::stod(value());
        } else if (arg == "--trace") {
            opts.trace = value() == "1";
        } else if (arg == "--run-dir") {
            opts.runDir = value();
        } else if (arg == "--bin-dir") {
            opts.binDir = value();
        } else if (arg == "--setup-only") {
            opts.setupOnly = true;
        } else {
            throw std::invalid_argument("unknown flag " + arg);
        }
    }
    if (opts.runDir.empty() || opts.binDir.empty() ||
        !(opts.seconds > 0.0)) {
        throw std::invalid_argument(
            "--run-dir, --bin-dir and a positive --seconds are required");
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // If run.py goes away, writes to its pipe must fail rather than kill
    // this process, so the swccd it started is still stopped.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const Options opts = parseArgs(argc, argv);
        std::filesystem::create_directories(opts.runDir);
        Result result;
        if (opts.workload == "validate") {
            runValidate(opts, result);
        } else if (opts.workload == "netval") {
            runNetval(opts, result);
        } else if (opts.workload == "replay") {
            runReplay(opts, result);
        } else if (opts.workload == "service") {
            runService(opts, result);
        } else {
            throw std::invalid_argument("unknown workload '" +
                                        opts.workload + "'");
        }
        if (!opts.setupOnly) {
            result.info("host.nproc", static_cast<double>(hostThreads()));
            result.info("host.isa", hostIsa());
            result.info("seed", static_cast<double>(opts.seed));
            std::cout << result.toJson() << std::endl;
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench_workload: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
