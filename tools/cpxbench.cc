/**
 * @file
 * cpxbench — run the whole paper harness in one command.
 *
 * Queues the sweep grids of every bench target (Tables 1-3, Figures
 * 2-4, the sensitivity studies and the ablations) on one shared
 * thread pool, renders each target's paper-style text tables in
 * canonical order, and writes one machine-readable JSON document
 * with every sweep point. That document is what the baseline gate
 * compares: it checks simulated stats only. Host performance is
 * measured by perfbench (perfbench/README.md) and recorded in
 * BENCH_perf.jsonl, not here.
 *
 *   cpxbench --jobs=8 --json=BENCH_results.json
 *
 * Options:
 *   --jobs=N        host worker threads (default hardware_concurrency)
 *   --json=PATH     JSON results file     (default BENCH_results.json)
 *   --scale=F       workload problem-size multiplier (default 1.0)
 *   --procs=N       simulated processors per system  (default 16)
 *   --seed=N        workload seed for seeded workloads
 *   --smoke         quick pass: scale 0.1, 8 procs (CI; overridable
 *                   by a later --scale/--procs)
 *   --sample-interval=N  sample interval metrics every N ticks and
 *                   embed the per-point "timeseries" JSON block
 *                   (0 = off, the default). Not neutral yet: the
 *                   sampler's kernel events cut slabs, which moves
 *                   execTime on most points (DESIGN.md §13, ROADMAP
 *                   item 1)
 *   --attrib        profile each point's causal stall attribution
 *                   and embed the per-point "attribution" JSON block
 *                   (DESIGN.md §17). Observation-only: simulated
 *                   stats are bit-identical either way, so a
 *                   --baseline gate passes with or without it
 *   --sim-threads=N host worker threads INSIDE each simulation
 *                   (parallel DES kernel, DESIGN.md §15; default 1,
 *                   max 64). Simulated stats are bit-identical at
 *                   every value, so --baseline comparisons hold
 *                   across thread counts
 *   --isolate=M     none (default): in-process thread pool;
 *                   process: one forked, supervised worker per point
 *                   — crashes/hangs/garbage become per-point
 *                   statuses instead of killing the suite
 *                   (DESIGN.md §14)
 *   --timeout=S     per-attempt wall-clock deadline in seconds
 *                   (process mode; 0 = none)
 *   --retries=N     extra attempts for transient failures
 *                   (default 1; process mode)
 *   --journal=P     append each finished point to JSONL journal P
 *                   (fsync'd before the point counts as done)
 *   --resume=P      reuse the points journal P records as ok; the
 *                   rest, failed ones included, run again (implies
 *                   --journal=P unless given separately)
 *   --only=A,B      run only the named bench targets (the only way
 *                   to run an opt-in target such as scaling_matrix)
 *   --list          list bench targets and exit
 *   --check-json=P  validate an existing results file (parseable,
 *                   cpx-sweep-1 schema, every point verified) and
 *                   exit; runs nothing
 *   --allow-failed  with --check-json: accept failed points that
 *                   carry a well-formed status/error block
 *   --baseline=P    with --check-json: additionally fail if any
 *                   simulated stat drifted from the committed
 *                   baseline file P (host time is never compared)
 *   --check-trace=P validate a Chrome-trace-event JSON file written
 *                   by cpxsim --trace-out (parseable, traceEvents
 *                   present, async begin/end balanced, counter
 *                   tracks well-formed and time-ordered) and exit;
 *                   runs nothing
 *
 * Determinism: each simulation is seeded and bit-identical at every
 * --sim-threads value (DESIGN.md §15), and results are collected by
 * queue position, so the tables and the JSON are bit-identical for
 * every --jobs value — and, because results cross the worker pipe at
 * full fidelity, for either --isolate mode.
 *
 * Exit codes: 0 success; 1 fatal error; 3 suite completed but one or
 * more points failed (their status/error is in the JSON); 130
 * interrupted by SIGINT/SIGTERM (journaled work is resumable).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/runner.hh"

int
main(int argc, char **argv)
{
    using namespace cpx;
    using namespace cpx::bench;

    std::vector<std::string> only;
    bool list_only = false;
    bool allow_failed = false;
    std::string check_json;
    std::string check_trace;
    std::string baseline;

    // The shared harness flags are parseOptions()'s; only the
    // driver's own flags are handled here.
    auto driver_flag = [&](const char *arg, Options &opts) {
        auto value = [arg](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
        };
        if (std::strcmp(arg, "--smoke") == 0) {
            opts.scale = 0.1;
            opts.procs = 8;
        } else if (const char *names = value("--only=")) {
            std::string list = names;
            for (std::size_t pos = 0; pos <= list.size();) {
                std::size_t comma = std::min(list.find(',', pos),
                                             list.size());
                if (comma > pos)
                    only.push_back(list.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (std::strcmp(arg, "--allow-failed") == 0) {
            allow_failed = true;
        } else if (std::strcmp(arg, "--list") == 0) {
            list_only = true;
        } else if (const char *v = value("--check-json=")) {
            check_json = v;
        } else if (const char *v = value("--check-trace=")) {
            check_trace = v;
        } else if (const char *v = value("--baseline=")) {
            baseline = v;
        } else {
            return false;
        }
        return true;
    };
    Options defaults;
    defaults.jsonPath = "BENCH_results.json";
    const Options opts = parseOptions(argc, argv, defaults, driver_flag);

    // The file-checking modes run nothing.
    std::string error;
    auto failed = [&error] {
        std::fprintf(stderr, "cpxbench: %s\n", error.c_str());
        return 1;
    };
    if (!check_trace.empty()) {
        if (!validateTraceFile(check_trace, error))
            return failed();
        std::printf("%s: OK\n", check_trace.c_str());
        return 0;
    }
    if (!check_json.empty()) {
        if (!validateResultsFile(check_json, error, allow_failed))
            return failed();
        if (baseline.empty()) {
            std::printf("%s: OK\n", check_json.c_str());
            return 0;
        }
        if (!compareToBaseline(check_json, baseline, error))
            return failed();
        std::printf("%s: OK (matches baseline %s)\n",
                    check_json.c_str(), baseline.c_str());
        return 0;
    }
    if (!baseline.empty())
        fatal("--baseline requires --check-json");

    if (list_only) {
        for (const BenchDef &def : benchRegistry())
            std::printf("%-22s %s\n", def.name, def.title);
        return 0;
    }

    // Without --only, the default suite; with it, exactly the named
    // targets (opt-in ones included).
    std::vector<const BenchDef *> selected;
    for (const BenchDef &def : benchRegistry())
        if (only.empty() ? def.defaultSuite
                         : std::count(only.begin(), only.end(), def.name))
            selected.push_back(&def);
    for (const std::string &name : only)
        if (std::none_of(selected.begin(), selected.end(),
                         [&name](const BenchDef *def) {
                             return name == def->name;
                         }))
            fatal("--only: unknown bench target '%s' (try --list)",
                  name.c_str());

    // Queue every selected target's grid, run the union over one
    // pool, then render in canonical order.
    SweepRunner runner(opts);
    std::vector<RenderFn> renders;
    for (const BenchDef *def : selected)
        renders.push_back(def->setup(runner, opts));
    runner.runAll();

    if (runner.interrupted()) {
        // Completed points are safely journaled; partial tables or a
        // partial JSON would only mislead.
        std::fprintf(stderr,
                     "cpxbench: interrupted; rerun with --resume to "
                     "continue\n");
        return exitCodeInterrupted;
    }

    bool first = true;
    for (const RenderFn &render : renders) {
        if (!first)
            std::printf("\n");
        first = false;
        if (render)
            render();
    }

    std::printf("\n%zu sweep points in %.2f host seconds "
                "(--jobs=%u)\n",
                runner.results().size(), runner.totalHostSeconds(),
                opts.jobs);
    if (!opts.jsonPath.empty()) {
        writeJson(opts.jsonPath, "cpxbench", opts, runner.results(),
                  runner.totalHostSeconds());
        std::printf("results written to %s\n", opts.jsonPath.c_str());
    }
    if (runner.anyFailed()) {
        std::fprintf(stderr,
                     "cpxbench: suite completed with %zu failed "
                     "sweep point(s):%s\n",
                     runner.failedCount(),
                     runner.failureSummary().c_str());
        return exitCodePointsFailed;
    }
    return 0;
}
