/**
 * @file
 * Parallel sweep runner for the benchmark harness.
 *
 * Every bench target regenerates one paper table/figure from a grid
 * of (application × machine configuration) simulations. Each
 * simulation is single-threaded and deterministic (DESIGN.md §8), so
 * the grid is embarrassingly parallel across host threads. The
 * SweepRunner fans queued points out over a bounded thread pool
 * (--jobs=N) and collects per-point results in queue order, so the
 * rendered tables — and the emitted JSON — are bit-identical to a
 * serial run regardless of the job count.
 *
 * Bench targets use it in two phases:
 *
 *   SweepRunner runner(opts);
 *   auto h = runner.add("mp3d", makeParams(ProtocolConfig::pcw()));
 *   ... queue the whole grid ...
 *   runner.runAll();                  // the only parallel section
 *   const SweepResult &r = runner[h]; // render tables
 *
 * Each bench module registers itself with CPX_BENCH_DEFINE so the
 * driver (tools/cpxbench) can run every table and figure through one
 * shared pool and write one BENCH_results.json; `cpxbench --only=NAME`
 * runs a single module.
 */

#ifndef CPX_BENCH_RUNNER_HH
#define CPX_BENCH_RUNNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hh"
#include "workloads/workload.hh"

namespace cpx::bench
{

/** How sweep points execute (DESIGN.md §14). */
enum class IsolateMode
{
    None,     //!< in-process thread pool (fast path; a fatal() or
              //!< crash in any point kills the whole suite)
    Process,  //!< one forked worker subprocess per point: crashes,
              //!< hangs and garbage become per-point outcomes
};

/** Harness-wide options shared by every bench target. */
struct Options
{
    double scale = 1.0;       //!< workload problem-size multiplier
    unsigned procs = 16;      //!< simulated processors per system
    unsigned jobs = 0;        //!< host threads; 0 = hardware_concurrency
    std::uint64_t seed = 1;   //!< workload seed (seeded workloads only)
    std::string jsonPath;     //!< --json=PATH; empty = no JSON output
    Tick sampleInterval = 0;  //!< interval-metrics period; 0 = off
    bool attrib = false;      //!< causal stall attribution (--attrib;
                              //!< observation-only, DESIGN.md §17)
    unsigned simThreads = 1;  //!< intra-simulation worker threads per
                              //!< point (parallel DES kernel,
                              //!< DESIGN.md §15); stats are
                              //!< bit-identical at every value

    // --- fault isolation (DESIGN.md §14) -----------------------------
    IsolateMode isolate = IsolateMode::None;
    double timeoutSec = 0;    //!< per-attempt wall-clock deadline;
                              //!< 0 = none (process mode only)
    unsigned retries = 1;     //!< extra attempts for transient
                              //!< failures (process mode only)
    std::string journalPath;  //!< append-only JSONL outcome journal
    std::string resumePath;   //!< journal to resume from (skip done)
};

/**
 * A driver's own flag handler for parseOptions(): returns true if it
 * consumed @p arg (possibly editing @p opts), false if @p arg is not
 * one of its flags.
 */
using ExtraOption = std::function<bool(const char *arg, Options &opts)>;

/**
 * Parse the options every bench driver accepts:
 *   --scale=F --procs=N --jobs=N --seed=N --json=PATH
 *   --sample-interval=N --attrib --sim-threads=N
 *   --isolate=none|process --timeout=SECONDS
 *   --retries=N --journal=PATH --resume=PATH
 * starting from @p defaults (CPX_SCALE in the environment seeds the
 * default scale). Flags are applied in order, so a later flag
 * overrides an earlier one; an argument none of them matches goes to
 * @p extra, and is fatal if @p extra does not consume it either.
 * Numbers are checked: malformed values, trailing garbage and zero
 * procs/jobs are fatal. --resume implies --journal at the same path
 * unless one was given explicitly.
 */
Options parseOptions(int argc, char **argv, Options defaults = {},
                     const ExtraOption &extra = nullptr);

/** One queued (application × machine) configuration. */
struct SweepPoint
{
    std::string app;
    MachineParams params;
    std::string tag;          //!< label in tables/JSON, e.g. "fig2"
    double scale = 1.0;
    std::uint64_t seed = 1;
};

/**
 * Outcome classification of one sweep point (DESIGN.md §14). A point
 * is a datum even when it fails: the suite completes, the failure is
 * reported per point, and the exit-code policy distinguishes
 * "completed with failures" from "died".
 */
enum class PointStatus
{
    NotRun,           //!< never dispatched (interrupted run)
    Ok,               //!< completed, verified
    NonzeroExit,      //!< worker exited with a nonzero status
    Signal,           //!< worker died on a signal (crash/abort)
    Timeout,          //!< worker exceeded the wall-clock deadline
    InvariantFailure, //!< simulation completed but failed verification
    Garbage,          //!< worker exited 0 but emitted unparseable
                      //!< output
};

/** Stable lower-case name ("ok", "signal", ...) for JSON/logs. */
const char *pointStatusName(PointStatus status);

/** True for failure classes worth retrying (host-transient). */
bool pointStatusRetryable(PointStatus status);

/** Where a finished result came from. */
enum class ResultSource
{
    Executed,  //!< ran in this process (or a worker it forked)
    Journal,   //!< reused from a --resume journal
};

/** One finished configuration. */
struct SweepResult
{
    SweepPoint point;
    WorkloadRun run;
    double hostSeconds = 0;   //!< host wall-time for this point
    PointStatus status = PointStatus::NotRun;
    std::string error;        //!< failure detail; empty when ok
    unsigned attempts = 0;    //!< execution attempts consumed
    std::string configHash;   //!< content hash of the configuration
    ResultSource source = ResultSource::Executed;

    /** Completed and verified: safe to render / gate. */
    bool ok() const { return status == PointStatus::Ok; }
};

/**
 * Content-addressed key of a sweep point: a 16-hex-digit FNV-1a hash
 * over every field that determines the simulated result — app, the
 * complete MachineParams, scale, seed, and the sample interval.
 * Identical hashes mean bit-identical stats (simulations are
 * deterministic), which is what lets a --resume journal reuse
 * points across runs. The hash covers the configuration, not the
 * simulator's code: a journal is only valid for the build that wrote
 * it. @p attrib salts the hash only when enabled (it changes the
 * result's *content*, like the sample interval, though never its
 * simulated stats), so every pre-existing journal hash stays valid.
 */
std::string pointConfigHash(const SweepPoint &point,
                            Tick sample_interval,
                            bool attrib = false);

/** "mp3d under P+CW/RC/uniform/16p (scale 1.00, seed 1)" */
std::string describePoint(const SweepPoint &point);

class SweepRunner
{
  public:
    explicit SweepRunner(const Options &opts);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /**
     * Queue one configuration and return its handle. @p params
     * inherits opts.procs unless @p procs overrides it (0 = inherit);
     * the point inherits opts.scale and opts.seed.
     * @pre runAll() has not been called yet for this point's batch
     */
    std::size_t add(const std::string &app, MachineParams params,
                    const std::string &tag = "", unsigned procs = 0);

    /**
     * Run every queued-but-unfinished point; blocks until all are
     * done (or the run is interrupted). Points whose config hash has
     * an ok record in the --resume journal are reused without
     * executing; the rest, including points journaled as failed, run
     * on the in-process thread pool (--isolate=none) or in forked
     * worker subprocesses (--isolate=process). Every newly finalized outcome
     * is appended to the journal (fsync'd) before the suite moves on.
     *
     * Failure policy: under --isolate=none a failed verification
     * fatal()s after all workers have joined, naming each failing
     * configuration in full (the historical behavior — in-process
     * code cannot survive crashes anyway). Under --isolate=process
     * every failure class becomes a per-point status; callers check
     * anyFailed()/interrupted() and apply the exit-code policy.
     *
     * Callable repeatedly: points added after a runAll() form the
     * next batch.
     */
    void runAll();

    /** Result of a finished point. @pre handle's batch has run */
    const SweepResult &operator[](std::size_t handle) const;

    /** All finished results, in add() order. */
    const std::vector<SweepResult> &results() const { return done; }

    /** Completed-and-verified check for one handle (render guards). */
    bool ok(std::size_t handle) const
    {
        return handle < done.size() && done[handle].ok();
    }

    /** True if any finished point failed (process-mode outcomes). */
    bool anyFailed() const { return failedCount() > 0; }

    /** Number of finished points that failed. */
    std::size_t failedCount() const;

    /** Multi-line summary of every failed point, for stderr. */
    std::string failureSummary() const;

    /** True if a SIGINT/SIGTERM stopped the last runAll() early. */
    bool interrupted() const { return interruptedFlag; }

    /** Points actually executed (not reused) across all batches. */
    std::size_t executedCount() const { return executed; }

    /** Host wall-time of all runAll() calls so far, in seconds. */
    double totalHostSeconds() const { return hostSeconds; }

    const Options &options() const { return opts; }

  private:
    void loadResumeJournal();
    void journalAppend(const SweepResult &result);
    void runBatchInProcess(std::vector<SweepResult> &batch,
                           const std::vector<std::size_t> &todo);
    void runBatchProcess(std::vector<SweepResult> &batch,
                         const std::vector<std::size_t> &todo);

    Options opts;
    std::vector<SweepPoint> queued;   //!< not yet run
    std::vector<SweepResult> done;    //!< finished, add() order
    double hostSeconds = 0;
    bool interruptedFlag = false;
    std::size_t executed = 0;
    int journalFd = -1;               //!< lazily opened append fd
    std::mutex journalMutex;          //!< in-process workers share fd
    bool resumeLoaded = false;
    std::map<std::string, SweepResult> resumeByHash;
};

/**
 * Write @p results as a machine-readable JSON document (see
 * DESIGN.md §11 for the schema): a header, then one writePoint()
 * record per line. @p suite names the producing harness. The write
 * is atomic: the document goes to "<path>.tmp", is fsync'd, and is
 * rename()d into place, so a crash mid-write never leaves a torn
 * results file to poison a later --baseline comparison.
 */
void writeJson(const std::string &path, const std::string &suite,
               const Options &opts,
               const std::vector<SweepResult> &results,
               double total_host_seconds);

// --- exit-code policy ------------------------------------------------------

/** Suite completed but one or more points failed. */
constexpr int exitCodePointsFailed = 3;
/** SIGINT/SIGTERM stopped the sweep; completed work is journaled. */
constexpr int exitCodeInterrupted = 130;

// --- point record: sweep file, journal and worker pipe --------------------

/**
 * Encode one finished point as the single-line cpx-sweep-1 point
 * object (DESIGN.md §11). The sweep file lists these records; the
 * journal and the worker pipe carry one per line. A completed point
 * carries every RunResult field at full fidelity (u64s exact,
 * doubles via %.17g); a failed point carries its classification
 * only.
 */
std::string writePoint(const SweepResult &result);

/**
 * Decode one writePoint() record into @p out, bit-identically. The
 * point's machine parameters are not restored: the caller re-derives
 * the point from its own queue and matches it by config hash.
 * Returns false and fills @p error on malformed input.
 */
bool readPoint(const std::string &line, SweepResult &out,
               std::string &error);

/** A journal's reusable records, indexed by config hash. */
struct JournalLoad
{
    std::map<std::string, SweepResult> byHash;  //!< ok records only
    std::size_t entries = 0;      //!< ok records loaded
    std::size_t stale = 0;        //!< retired-format records (re-run)
    std::size_t quarantined = 0;  //!< corrupt/truncated lines
    std::string quarantineFile;   //!< where bad lines were copied
};

/**
 * Load a JSONL outcome journal. Corrupt or truncated lines are
 * quarantined, not silently skipped: each is appended verbatim to
 * "<path>.quarantine", counted, and warn()ed about, while every
 * valid line is parsed. Only ok records are kept: a failed outcome
 * (a crash, a timeout, a failed verification) is not reused, so its
 * point re-runs. Records in the retired "cpx-wire-1" format are
 * counted as stale and skipped, so their points re-run too. A missing
 * journal loads as empty.
 */
JournalLoad loadJournal(const std::string &path);

// --- minimal JSON reader (validation / round-trip tests) -------------------

/** A parsed JSON value: exactly one of the members is active. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    bool has(const std::string &key) const { return members.count(key); }
    const JsonValue &at(const std::string &key) const;
};

/** @p obj's number member @p key, or @p fallback if there is none. */
double numberOr(const JsonValue &obj, const char *key, double fallback);

/** @p obj's string member @p key, or @p fallback if there is none. */
std::string textOr(const JsonValue &obj, const char *key,
                   const char *fallback);

/**
 * Parse a JSON document. On success returns true and fills @p out;
 * on malformed input returns false and fills @p error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/**
 * Decode the optional blocks of one sweep-file point object — the
 * sampled "timeseries" and the "attribution" — into @p out through
 * the point codec. They may be absent; one that is present but
 * incomplete makes this return false and fill @p error. Works on
 * points of every cpx-sweep-1 file, old ones included.
 */
bool readOptionalBlocks(const JsonValue &point, RunResult &out,
                        std::string &error);

/**
 * Read and parse the JSON file @p path. On failure returns false and
 * fills @p error, naming the path.
 */
bool loadJsonFile(const std::string &path, JsonValue &doc,
                  std::string &error);

/**
 * Load and validate a sweep-results JSON file: parseable, carries
 * the cpx-sweep schema marker, every ok point structurally complete
 * and verified, every failed point carrying its "status"/"error"
 * block. Unless @p allow_failed, any failed or unverified point
 * fails validation — with every offender listed in @p error, not
 * just the first. Returns true on success; otherwise fills
 * @p error.
 */
bool validateResultsFile(const std::string &path, std::string &error,
                         bool allow_failed = false);

/**
 * Validate a Chrome-trace-event JSON file as written by the flight
 * recorder exporter (TraceSink::writeChromeTrace): parseable, carries
 * a non-empty traceEvents array, every event names a phase, and every
 * async transaction begin ("b") has a matching end ("e") with the
 * same id. Returns true on success; otherwise fills @p error.
 */
bool validateTraceFile(const std::string &path, std::string &error);

/**
 * Compare a results file against a committed baseline. Every
 * simulated stat of every point — configuration, verification,
 * directory counters, execTime, time breakdown, miss rates, traffic,
 * protocol events, latency histograms, the exact counters and any
 * timeseries — must match the baseline bit-for-bit. Host time
 * (hostSeconds, the document's timestamp and jobs) and the kernel
 * block's work counts are exempt and never affect the result. Returns
 * true if nothing drifted, else fills @p error with EVERY divergent
 * point (one line each, naming the point and its config hash; past 40
 * the rest are counted), so one check-json run shows the full blast
 * radius instead of the first casualty.
 */
bool compareToBaseline(const std::string &path,
                       const std::string &baseline_path,
                       std::string &error);

// --- bench-module registry -------------------------------------------------

/** Called after runAll() to print the target's paper-style tables. */
using RenderFn = std::function<void()>;

/**
 * Queue the target's sweep grid on @p runner and return the closure
 * that renders its tables once the grid has run.
 */
using SetupFn = RenderFn (*)(SweepRunner &runner, const Options &opts);

struct BenchDef
{
    const char *name;         //!< --only name, e.g. "fig2_exectime_rc"
    const char *title;        //!< one-line description for --list
    int order;                //!< position in the cpxbench suite
    SetupFn setup;
    bool defaultSuite = true; //!< runs without --only; false keeps an
                              //!< opt-in grid out of the smoke sweep
};

/** Every bench module linked into this binary, sorted by order. */
const std::vector<BenchDef> &benchRegistry();

namespace detail
{
struct BenchRegistrar
{
    BenchRegistrar(const BenchDef &def);
};
} // namespace detail

/**
 * Define one bench module for tools/cpxbench:
 * CPX_BENCH_DEFINE(id, title, order, setup[, defaultSuite]).
 */
#define CPX_BENCH_DEFINE(id, ...)                                       \
    static const ::cpx::bench::detail::BenchRegistrar                   \
        benchRegistrar_##id{::cpx::bench::BenchDef{#id, __VA_ARGS__}};

} // namespace cpx::bench

#endif // CPX_BENCH_RUNNER_HH
