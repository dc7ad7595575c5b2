#include "cli/commands.hh"

#include <ostream>
#include <stdexcept>

#include "core/campaign/atomic_file.hh"
#include "core/campaign/campaign.hh"
#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/swcc.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_io.hh"

namespace swcc::cli
{

namespace
{

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

ParamId
paramFromName(const std::string &name)
{
    for (ParamId id : kAllParams) {
        if (name == paramName(id)) {
            return id;
        }
    }
    if (name == "apl") {
        return ParamId::InvApl; // Callers sweep 1/apl transparently.
    }
    throw std::invalid_argument("unknown parameter '" + name + "'");
}

/** Applies every recognised `--<param> value` override. */
WorkloadParams
workloadFromOptions(const Options &options)
{
    WorkloadParams params = middleParams();
    for (ParamId id : kAllParams) {
        const std::string name(paramName(id));
        if (name == "1/apl") {
            continue; // Awkward on a command line; use --apl.
        }
        if (const auto text = options.value(name)) {
            setParam(params, id, options.numberOr(name, 0.0));
        }
    }
    if (options.has("apl")) {
        params.apl = options.numberOr("apl", params.apl);
    }
    params.validate();
    return params;
}

std::vector<std::string>
workloadOptionNames()
{
    std::vector<std::string> names;
    for (ParamId id : kAllParams) {
        const std::string name(paramName(id));
        if (name != "1/apl") {
            names.push_back(name);
        }
    }
    names.push_back("apl");
    return names;
}

std::vector<std::string>
withWorkload(std::vector<std::string> extra)
{
    std::vector<std::string> names = workloadOptionNames();
    names.insert(names.end(), extra.begin(), extra.end());
    return names;
}

/** Options every command accepts (threading + observability). */
std::vector<std::string>
withGlobals(std::vector<std::string> extra)
{
    static const std::vector<std::string> kGlobalOptions = {
        "threads", "metrics-out", "trace-json", "progress",
        "log-level",
    };
    extra.insert(extra.end(), kGlobalOptions.begin(),
                 kGlobalOptions.end());
    return extra;
}

/** Extra options of the campaign commands (sweep/sensitivity/validate). */
std::vector<std::string>
withCampaign(std::vector<std::string> extra)
{
    static const std::vector<std::string> kCampaignOptions = {
        "journal", "resume", "csv-out", "fault-inject",
    };
    extra.insert(extra.end(), kCampaignOptions.begin(),
                 kCampaignOptions.end());
    return extra;
}

/** Builds the campaign configuration from the command line. */
campaign::CampaignOptions
campaignFromOptions(const Options &options)
{
    campaign::CampaignOptions campaign;
    campaign.journalPath = options.valueOr("journal", "");
    campaign.resume = options.has("resume");
    if (campaign.resume && campaign.journalPath.empty()) {
        throw std::invalid_argument("--resume needs --journal FILE");
    }
    campaign.faultSpec = options.valueOr("fault-inject", "");
    return campaign;
}

/**
 * Post-campaign bookkeeping shared by the campaign commands: the
 * optional CSV artifact (atomic, so an interrupted write never leaves
 * a plausible-looking truncated file) and the campaign summary. The
 * summary goes to @p err — stdout and the CSV must stay byte-identical
 * between a fresh run and a resumed one, and "N from journal" differs.
 */
void
finishCampaign(const Options &options, const TextTable &table,
               const campaign::CampaignOptions &campaign,
               const campaign::CampaignReport &report, std::ostream &err)
{
    if (const auto path = options.value("csv-out")) {
        campaign::atomicWriteFile(
            *path, [&](std::ostream &os) { table.printCsv(os); });
    }
    if (!campaign.journalPath.empty()) {
        err << "campaign: " << report.summary()
            << " (journal: " << campaign.journalPath << ")\n";
    }
}

/**
 * Ends a failed run with exit @p code: writes the pending metrics and
 * trace (a failed run keeps its post-mortem artifacts) and reports a
 * failure to write them without changing the code.
 */
int
failRun(std::ostream &err, int code)
{
    try {
        obs::finalize();
    } catch (const std::exception &error) {
        err << "error: " << error.what() << '\n';
    }
    return code;
}

} // namespace

void
printUsage(std::ostream &out)
{
    out <<
        "swcc — Owicki-Agarwal software cache coherence toolkit\n"
        "\n"
        "usage: swcc <command> [options]\n"
        "\n"
        "commands:\n"
        "  eval      evaluate the schemes analytically\n"
        "            --cpus N (8) --network --stages N\n"
        "            --<param> value (any Table 2 name, plus --apl)\n"
        "  gen       generate a synthetic trace\n"
        "            --profile pops-like|thor-like|pero-like\n"
        "            --cpus N (4) --instructions N (100000)\n"
        "            --seed N (1) --flushes --out FILE\n"
        "  stat      measure a trace's workload parameters\n"
        "            <trace-file> [--block BYTES (16)]\n"
        "  sim       simulate a trace under one scheme\n"
        "            <trace-file> --scheme NAME [--cache BYTES]\n"
        "            [--assoc N] [--block BYTES]\n"
        "  validate  model vs simulation on a synthetic profile\n"
        "            --profile NAME --scheme NAME --cpus N\n"
        "            [--instructions N] [--cache BYTES] [--seed N]\n"
        "  sweep     sweep one parameter across all schemes\n"
        "            --param NAME --from X --to X [--points N]\n"
        "            [--cpus N]\n"
        "  network   compare circuit/packet/directory on a network\n"
        "            [--stages N (8)] [--switch K (2)] [--<param> v]\n"
        "  sensitivity  Table 8 sensitivity analysis\n"
        "            [--cpus N (16)] [--grid]\n"
        "\n"
        "global options:\n"
        "  --threads N  worker threads for experiment grids, 1..4096\n"
        "            (default: SWCC_THREADS, else hardware concurrency;\n"
        "            results are bit-identical for any thread count)\n"
        "  --metrics-out FILE  dump the metrics registry on exit\n"
        "            (JSON, or CSV when FILE ends in .csv)\n"
        "  --trace-json FILE  emit a Chrome trace-event file; open it\n"
        "            in https://ui.perfetto.dev (simulated time is in\n"
        "            cycles, wall time in microseconds)\n"
        "  --progress  rate/ETA progress lines on stderr for long\n"
        "            sweeps (throttled, TTY-aware)\n"
        "  --log-level LEVEL  trace|debug|info|warn|error|off\n"
        "            (default: warn, or SWCC_LOG_LEVEL env var)\n"
        "\n"
        "campaign options (sweep, sensitivity, validate):\n"
        "  --journal FILE  append each completed cell to a checksummed\n"
        "            journal; an interrupted run exits 3 and can be\n"
        "            continued with --resume, producing byte-identical\n"
        "            output\n"
        "  --resume  load the journal first and recompute only the\n"
        "            missing cells (requires --journal)\n"
        "  --csv-out FILE  also write the result table as CSV\n"
        "            (atomic: temp file + fsync + rename)\n"
        "  --fault-inject task-kill:COUNT[@SKIP]  kill the campaign at\n"
        "            COUNT cell starts after the first SKIP (exit 3),\n"
        "            to test --resume\n"
        "  A cell that fails stops the campaign with exit 2 and names\n"
        "  the cell; cells finished before it stay in the journal.\n";
}

int
cmdEval(const Options &options, std::ostream &out)
{
    options.requireKnown(
        withWorkload(withGlobals({"cpus", "network", "stages"})));
    const WorkloadParams params = workloadFromOptions(options);
    const unsigned cpus = options.unsignedOr("cpus", 8);
    if (cpus == 0) {
        throw std::invalid_argument("--cpus must be positive");
    }

    if (options.has("network") || options.has("stages")) {
        const unsigned stages =
            options.unsignedOr("stages", stagesForProcessors(cpus));
        out << "Multistage network, " << (1u << stages)
            << " processors:\n\n";
        TextTable table({"scheme", "compute U", "cycles/instr",
                         "power"});
        for (Scheme scheme : kAllSchemes) {
            if (!schemeWorksOnNetwork(scheme)) {
                continue;
            }
            const NetworkSolution sol =
                evaluateNetwork(scheme, params, stages);
            table.addRow({std::string(schemeName(scheme)),
                          formatNumber(sol.computeFraction, 3),
                          formatNumber(sol.cyclesPerInstruction, 3),
                          formatNumber(sol.processingPower, 2)});
        }
        const NetworkSolution dir =
            evaluateDirectoryNetwork(params, stages);
        table.addRow({"Directory (ext)",
                      formatNumber(dir.computeFraction, 3),
                      formatNumber(dir.cyclesPerInstruction, 3),
                      formatNumber(dir.processingPower, 2)});
        table.print(out);
        return 0;
    }

    out << "Bus, " << cpus << " processors:\n\n";
    TextTable table({"scheme", "c", "b", "waiting", "utilization",
                     "power"});
    for (Scheme scheme : kAllSchemes) {
        const BusSolution sol = evaluateBus(scheme, params, cpus);
        table.addRow({std::string(schemeName(scheme)),
                      formatNumber(sol.cpu, 3),
                      formatNumber(sol.bus, 3),
                      formatNumber(sol.waiting, 3),
                      formatNumber(sol.processorUtilization, 3),
                      formatNumber(sol.processingPower, 2)});
    }
    table.print(out);
    return 0;
}

int
cmdGen(const Options &options, std::ostream &out)
{
    options.requireKnown(withGlobals(
        {"profile", "cpus", "instructions", "seed", "flushes", "out"}));
    const AppProfile profile =
        profileFromName(options.valueOr("profile", "pops-like"));
    const SyntheticWorkloadConfig config = profileConfig(
        profile, options.unsignedOr("cpus", 4),
        options.unsignedOr("instructions", 100'000),
        options.unsignedOr("seed", 1), options.has("flushes"));

    const TraceBuffer trace = generateTrace(config);
    const std::string path = options.valueOr("out", "trace.swcc");
    saveTrace(trace, path);
    out << "wrote " << trace.size() << " events ("
        << static_cast<unsigned>(trace.numCpus()) << " cpus) to "
        << path << '\n';
    return 0;
}

int
cmdStat(const Options &options, std::ostream &out)
{
    options.requireKnown(withGlobals({"block"}));
    if (options.positional().empty()) {
        throw std::invalid_argument("stat needs a trace file");
    }
    const TraceBuffer trace = loadTrace(options.positional().front());
    const std::size_t block = options.unsignedOr("block", 16);
    const TraceStatistics stats = analyzeTrace(trace, block);

    TextTable table({"quantity", "value"});
    table.addRow({"events", formatNumber(
        static_cast<double>(trace.size()), 0)});
    table.addRow({"cpus", formatNumber(trace.numCpus(), 0)});
    table.addRow({"instructions", formatNumber(
        static_cast<double>(stats.instructions), 0)});
    table.addRow({"ls", formatNumber(stats.ls, 4)});
    table.addRow({"shd (dynamic)", formatNumber(stats.shd, 4)});
    table.addRow({"wr", formatNumber(stats.wr, 4)});
    table.addRow({"apl", stats.apl
        ? formatNumber(*stats.apl, 2) : "n/a"});
    table.addRow({"mdshd", stats.mdshd
        ? formatNumber(*stats.mdshd, 3) : "n/a (no flushes)"});
    table.addRow({"shared blocks", formatNumber(
        static_cast<double>(stats.sharedBlocks), 0)});
    table.print(out);
    return 0;
}

int
cmdSim(const Options &options, std::ostream &out)
{
    options.requireKnown(withGlobals(
        {"scheme", "cache", "assoc", "block"}));
    if (options.positional().empty()) {
        throw std::invalid_argument("sim needs a trace file");
    }
    const Scheme scheme =
        schemeFromName(options.valueOr("scheme", "dragon"));
    const TraceBuffer trace = loadTrace(options.positional().front());

    CacheConfig cache;
    cache.sizeBytes = options.unsignedOr("cache", 64 * 1024);
    cache.blockBytes = options.unsignedOr("block", 16);
    cache.associativity = options.unsignedOr("assoc", 1);

    // No-Cache needs a shared region; the generator's fixed layout
    // marks everything above kSharedBase.
    const SharedClassifier shared = [](Addr addr) {
        return addr >= SyntheticWorkloadConfig::kSharedBase;
    };
    const SimStats stats = simulateTrace(scheme, trace, cache, shared);

    TextTable table({"quantity", "value"});
    table.addRow({"scheme", std::string(schemeName(scheme))});
    table.addRow({"makespan (cycles)",
                  formatNumber(stats.makespan, 0)});
    table.addRow({"processing power",
                  formatNumber(stats.processingPower(), 3)});
    table.addRow({"avg utilization",
                  formatNumber(stats.avgUtilization(), 3)});
    table.addRow({"bus utilization",
                  formatNumber(stats.busUtilization(), 3)});
    table.addRow({"data miss rate",
                  formatNumber(stats.dataMissRate(), 4)});
    table.addRow({"instr miss rate",
                  formatNumber(stats.instrMissRate(), 4)});
    table.addRow({"dirty miss fraction",
                  formatNumber(stats.dirtyMissFraction(), 3)});
    table.print(out);
    return 0;
}

int
cmdValidate(const Options &options, std::ostream &out,
            std::ostream &err)
{
    options.requireKnown(withCampaign(withGlobals(
        {"profile", "scheme", "cpus", "instructions", "cache",
         "seed"})));
    ValidationConfig config;
    config.profile =
        profileFromName(options.valueOr("profile", "pops-like"));
    config.scheme = schemeFromName(options.valueOr("scheme", "dragon"));
    // Checked before the narrowing to CpuId, which would wrap 65537
    // to 1.
    const unsigned max_cpus = options.unsignedOr("cpus", 4);
    if (max_cpus > SyntheticWorkloadConfig::kMaxCpus) {
        throw std::invalid_argument(
            "--cpus must be at most " +
            std::to_string(SyntheticWorkloadConfig::kMaxCpus));
    }
    config.maxCpus = static_cast<CpuId>(max_cpus);
    config.instructionsPerCpu =
        options.unsignedOr("instructions", 100'000);
    config.cacheBytes = options.unsignedOr("cache", 64 * 1024);
    config.seed = options.unsignedOr("seed", 1);

    const campaign::CampaignOptions campaign =
        campaignFromOptions(options);
    campaign::CampaignReport report;

    TextTable table({"cpus", "sim power", "model power", "error %"});
    for (const ValidationPoint &point :
         validate(config, campaign, &report)) {
        table.addRow({formatNumber(point.cpus, 0),
                      formatNumber(point.simPower, 3),
                      formatNumber(point.modelPower, 3),
                      formatNumber(point.errorPercent(), 1)});
    }
    table.print(out);
    finishCampaign(options, table, campaign, report, err);
    return 0;
}

int
cmdSweep(const Options &options, std::ostream &out, std::ostream &err)
{
    options.requireKnown(withWorkload(withCampaign(
        withGlobals({"param", "from", "to", "points", "cpus"}))));
    const auto param_name = options.value("param");
    if (!param_name) {
        throw std::invalid_argument("sweep needs --param");
    }
    const ParamId param = paramFromName(*param_name);
    const bool sweep_apl = *param_name == "apl";
    const double from = options.numberOr("from", sweep_apl ? 1.0 : 0.0);
    const double to = options.numberOr("to", sweep_apl ? 128.0 : 0.5);
    const std::size_t points = options.unsignedOr("points", 9);
    const unsigned cpus = options.unsignedOr("cpus", 16);

    WorkloadParams base = workloadFromOptions(options);

    const std::vector<Scheme> schemes = {
        Scheme::Base,  Scheme::Dragon, Scheme::SoftwareFlush,
        Scheme::NoCache, Scheme::Mesi, Scheme::Mesif, Scheme::Moesi,
        Scheme::Hybrid,
    };
    const campaign::CampaignOptions campaign =
        campaignFromOptions(options);
    campaign::CampaignReport report;
    const std::vector<SweepRow> rows =
        sweepPowerGrid(param, sweep_apl, linspace(from, to, points),
                       base, cpus, schemes, campaign, &report);

    TextTable table({*param_name, "Base", "Dragon", "Software-Flush",
                     "No-Cache", "MESI", "MESIF", "MOESI",
                     "Adaptive-Hybrid"});
    for (const SweepRow &grid_row : rows) {
        std::vector<std::string> row{formatNumber(grid_row.value, 4)};
        for (double power : grid_row.power) {
            row.push_back(formatNumber(power, 2));
        }
        table.addRow(std::move(row));
    }
    table.print(out);
    finishCampaign(options, table, campaign, report, err);
    return 0;
}

int
cmdNetwork(const Options &options, std::ostream &out)
{
    options.requireKnown(
        withWorkload(withGlobals({"stages", "switch"})));
    const WorkloadParams params = workloadFromOptions(options);
    const unsigned k = options.unsignedOr("switch", 2);
    if (k < 2) {
        throw std::invalid_argument("--switch must be >= 2");
    }
    const unsigned stages = options.unsignedOr("stages", 8);
    const unsigned processors = 1u << stages;

    out << "Network disciplines, " << processors
        << " processors (circuit: " << stages
        << " stages of 2x2):\n\n";
    TextTable table({"scheme", "circuit power", "packet power",
                     "packet/circuit"});
    for (Scheme scheme : {Scheme::Base, Scheme::SoftwareFlush,
                          Scheme::NoCache}) {
        const double circuit =
            evaluateNetwork(scheme, params, stages).processingPower;
        const double packet =
            solvePacketNetwork(scheme, params, stages).processingPower;
        table.addRow({std::string(schemeName(scheme)),
                      formatNumber(circuit, 1),
                      formatNumber(packet, 1),
                      formatNumber(packet / circuit, 2) + "x"});
    }
    const double directory =
        evaluateDirectoryNetwork(params, stages).processingPower;
    table.addRow({"Directory (ext)", formatNumber(directory, 1), "-",
                  "-"});
    table.print(out);

    if (k > 2) {
        const unsigned k_stages = stagesForProcessorsK(processors, k);
        out << "\nWith " << k << "x" << k << " switches (" << k_stages
            << " stages), compute fraction at the Software-Flush "
               "operating point:\n";
        const NetworkCostModel costs(k_stages);
        const PerInstructionCost cost = perInstructionCost(
            operationFrequencies(Scheme::SoftwareFlush, params), costs);
        const double u = solveComputeFractionK(
            1.0 / cost.thinkTime(), cost.channel, k_stages, k);
        out << "  U = " << formatNumber(u, 3) << " (2x2: "
            << formatNumber(
                   evaluateNetwork(Scheme::SoftwareFlush, params,
                                   stages).computeFraction, 3)
            << ")\n";
    }
    return 0;
}

int
cmdSensitivity(const Options &options, std::ostream &out,
               std::ostream &err)
{
    options.requireKnown(withCampaign(withGlobals({"cpus", "grid"})));
    SensitivityConfig config;
    config.processors = options.unsignedOr("cpus", 16);
    config.averageOverGrid = options.has("grid");

    const campaign::CampaignOptions campaign =
        campaignFromOptions(options);
    campaign::CampaignReport campaign_report;

    const auto table =
        sensitivityTable(config, campaign, &campaign_report);
    out << "Sensitivity (% change in execution time, low -> high, "
        << config.processors << " CPUs"
        << (config.averageOverGrid ? ", grid-averaged" : "") << "):\n\n";
    TextTable report({"parameter", "Software-Flush", "No-Cache",
                      "Dragon", "Base"});
    for (ParamId param : kAllParams) {
        std::vector<std::string> row{std::string(paramName(param))};
        for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache,
                              Scheme::Dragon, Scheme::Base}) {
            for (const SensitivityEntry &entry : table) {
                if (entry.param == param && entry.scheme == scheme) {
                    row.push_back(
                        formatNumber(entry.percentChange, 1));
                }
            }
        }
        report.addRow(std::move(row));
    }
    report.print(out);
    finishCampaign(options, report, campaign, campaign_report, err);
    return 0;
}

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    if (args.empty()) {
        printUsage(err);
        return 2;
    }
    const std::string &command = args.front();
    const std::vector<std::string> rest(args.begin() + 1, args.end());

    try {
        const Options options = Options::parse(rest);
        if (options.has("threads")) {
            const unsigned threads = options.unsignedOr("threads", 0);
            if (threads == 0 || threads > kMaxThreads) {
                throw std::invalid_argument(
                    "option --threads expects a positive integer of at "
                    "most " + std::to_string(kMaxThreads));
            }
            setThreadCount(threads);
        }

        // Environment defaults first, explicit flags on top.
        obs::CliConfig obs_config = obs::envConfig();
        if (const auto path = options.value("metrics-out")) {
            obs_config.metricsOut = *path;
        }
        if (const auto path = options.value("trace-json")) {
            obs_config.traceJson = *path;
        }
        if (options.has("progress")) {
            obs_config.progress = true;
        }
        if (const auto level = options.value("log-level")) {
            obs_config.logLevel = *level;
        }
        obs::applyCli(obs_config);

        const auto dispatch = [&]() -> int {
            if (command == "eval") {
                return cmdEval(options, out);
            }
            if (command == "gen") {
                return cmdGen(options, out);
            }
            if (command == "stat") {
                return cmdStat(options, out);
            }
            if (command == "sim") {
                return cmdSim(options, out);
            }
            if (command == "validate") {
                return cmdValidate(options, out, err);
            }
            if (command == "sweep") {
                return cmdSweep(options, out, err);
            }
            if (command == "network") {
                return cmdNetwork(options, out);
            }
            if (command == "sensitivity") {
                return cmdSensitivity(options, out, err);
            }
            if (command == "help" || command == "--help") {
                printUsage(out);
                return 0;
            }
            err << "unknown command '" << command << "'\n\n";
            printUsage(err);
            return 2;
        };
        const int rc = dispatch();
        obs::finalize();
        return rc;
    } catch (const campaign::TaskKilled &error) {
        // The campaign journaled every completed cell before dying,
        // so the run is resumable.
        err << "fatal: " << error.what() << '\n'
            << "completed cells are journaled; rerun the same command "
               "with --resume to continue\n";
        return failRun(err, 3);
    } catch (const std::exception &error) {
        err << "error: " << error.what() << '\n';
        return failRun(err, 2);
    }
}

} // namespace swcc::cli
