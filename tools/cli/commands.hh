/**
 * @file
 * Subcommands of the swcc command-line tool.
 *
 * Each command takes parsed options and writes its report to a
 * stream, so the whole tool is unit-testable without a process
 * boundary.
 */

#ifndef SWCC_TOOLS_CLI_COMMANDS_HH
#define SWCC_TOOLS_CLI_COMMANDS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/options.hh"

namespace swcc::cli
{

/**
 * Dispatches one invocation.
 *
 * @param args argv-style tokens *excluding* the program name; the
 *        first token selects the subcommand.
 * @param out Stream for normal output (and `help`).
 * @param err Stream for diagnostics: `error:` and `fatal:` lines, a
 *        campaign's `--journal` summary, and the usage text after a
 *        missing or unknown command.
 * @return Process exit code (0 on success, 2 on an error, 3 when a
 *         campaign is killed).
 *
 * A failed run still writes its `--metrics-out` and `--trace-json`
 * artifacts.
 */
int run(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err);

/** `swcc eval`: evaluate schemes analytically (bus or network). */
int cmdEval(const Options &options, std::ostream &out);

/** `swcc gen`: generate a synthetic trace file. */
int cmdGen(const Options &options, std::ostream &out);

/** `swcc stat`: measure workload parameters of a trace file. */
int cmdStat(const Options &options, std::ostream &out);

/** `swcc sim`: simulate a trace under a coherence scheme. */
int cmdSim(const Options &options, std::ostream &out);

/**
 * `swcc validate`: model-vs-simulation on a synthetic profile. The
 * campaign commands print their `--journal` summary on @p err.
 */
int cmdValidate(const Options &options, std::ostream &out,
                std::ostream &err);

/** `swcc sweep`: sweep one workload parameter for every scheme. */
int cmdSweep(const Options &options, std::ostream &out,
             std::ostream &err);

/** `swcc network`: compare network disciplines for one workload. */
int cmdNetwork(const Options &options, std::ostream &out);

/** `swcc sensitivity`: print the Table 8 sensitivity analysis. */
int cmdSensitivity(const Options &options, std::ostream &out,
                   std::ostream &err);

/** Prints the global usage text. */
void printUsage(std::ostream &out);

} // namespace swcc::cli

#endif // SWCC_TOOLS_CLI_COMMANDS_HH
