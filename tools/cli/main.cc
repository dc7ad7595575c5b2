/**
 * @file
 * Entry point of the swcc command-line tool.
 */

#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 1; i < argc; ++i) {
        args.emplace_back(argv[i]);
    }
    return swcc::cli::run(args, std::cout, std::cerr);
}
