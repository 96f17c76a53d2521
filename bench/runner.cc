#include "bench/runner.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/attrib.hh"
#include "sim/parse.hh"

namespace cpx::bench
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

std::string
networkName(const MachineParams &params)
{
    if (params.networkKind == NetworkKind::Uniform)
        return "uniform";
    return "mesh" + std::to_string(params.meshLinkBits);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // JSON has no infinities or NaNs; the stats never produce them,
    // but never emit an unparseable document if one slips through.
    if (std::strstr(buf, "inf") || std::strstr(buf, "nan"))
        return "null";
    return buf;
}

/**
 * Exact u64 readback: the parser keeps each number's raw token in
 * JsonValue::text, so integers beyond 2^53 (which a double cannot
 * hold exactly) still round-trip through point records.
 */
std::uint64_t
jsonU64(const JsonValue &v)
{
    if (!v.text.empty() &&
        v.text.find_first_of(".eE") == std::string::npos)
        return std::strtoull(v.text.c_str(), nullptr, 10);
    return static_cast<std::uint64_t>(v.number);
}

/** write(2) the whole buffer, riding out EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Atomically replace @p path with @p content: write "<path>.tmp",
 * fsync it, then rename() into place, so readers never observe a
 * torn file. Returns false and fills @p error on any failure (the
 * temp file is removed).
 */
bool
atomicWriteFile(const std::string &path, const std::string &content,
                std::string &error)
{
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        error = "cannot write '" + tmp + "': " + std::strerror(errno);
        return false;
    }
    bool ok =
        std::fwrite(content.data(), 1, content.size(), file) ==
            content.size() &&
        std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
    ok = (std::fclose(file) == 0) && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0)
        ok = false;
    if (!ok) {
        error = "atomic write to '" + path +
                "' failed: " + std::strerror(errno);
        std::remove(tmp.c_str());
    }
    return ok;
}

/** 64-bit FNV-1a over @p s. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// --- fault-injection synthetic points (process isolation only) -------------
//
// Reserved app names the forked worker intercepts before touching the
// simulator. The isolation tests (tests/test_isolate.cc) queue them to
// prove the supervisor survives every failure class. They never reach
// makeWorkload() in-process: an unknown name there is a fatal() (by
// design — the fast path cannot survive a real crash).

constexpr const char *faultAppCrash = "__crash";        // SIGABRT
constexpr const char *faultAppExit = "__exit";          // _exit(9)
constexpr const char *faultAppHang = "__hang";          // never returns
constexpr const char *faultAppGarbage = "__garbage";    // bad output
constexpr const char *faultAppFlaky = "__flaky";        // fails once
constexpr const char *faultAppUnverified = "__unverified";

/** Marker-file env var driving faultAppFlaky (see runWorkerChild). */
constexpr const char *flakyMarkerEnv = "CPX_FLAKY_MARKER";

/**
 * Run one real (non-synthetic) point on the calling thread and
 * classify the outcome: Ok, or InvariantFailure when the simulation
 * completed but failed verification.
 */
SweepResult
executeRealPoint(const SweepPoint &point, Tick sample_interval,
                 unsigned sim_threads, bool attrib)
{
    SweepResult res;
    res.point = point;
    res.attempts = 1;
    auto start = SteadyClock::now();
    System sys(point.params, sim_threads);
    std::unique_ptr<AttribSink> attrib_sink;
    if (attrib) {
        attrib_sink = std::make_unique<AttribSink>(point.params.numProcs);
        sys.setAttrib(attrib_sink.get());
    }
    auto w = makeWorkload(point.app, point.scale, point.seed);
    res.run = runWorkload(sys, *w, maxTick, sample_interval);
    std::chrono::duration<double> elapsed = SteadyClock::now() - start;
    res.hostSeconds = elapsed.count();
    if (res.run.verified) {
        res.status = PointStatus::Ok;
    } else {
        res.status = PointStatus::InvariantFailure;
        res.error = "failed verification";
    }
    return res;
}

/**
 * Worker-subprocess body: run the point (or act out its synthetic
 * fault), write its point record as one line to @p fd, and _exit. Never
 * returns. Runs straight after fork() from the single-threaded
 * supervisor, so arbitrary library code is safe here.
 */
[[noreturn]] void
runWorkerChild(const SweepPoint &point, Tick sample_interval,
               unsigned sim_threads, bool attrib, int fd,
               const std::string &hash, unsigned attempt)
{
    SweepPoint run_point = point;
    bool force_unverified = false;
    if (point.app == faultAppCrash) {
        std::abort();
    } else if (point.app == faultAppExit) {
        _exit(9);
    } else if (point.app == faultAppHang) {
        for (;;)
            ::pause();
    } else if (point.app == faultAppGarbage) {
        const char garbage[] = "** this is not a point record **\n";
        writeAll(fd, garbage, sizeof(garbage) - 1);
        _exit(0);
    } else if (point.app == faultAppFlaky) {
        // Transient failure: crash while the marker file is absent,
        // creating it on the way down so the retry succeeds.
        const char *marker = std::getenv(flakyMarkerEnv);
        if (!marker)
            _exit(9);
        if (::access(marker, F_OK) != 0) {
            int mfd = ::open(marker, O_CREAT | O_WRONLY, 0644);
            if (mfd >= 0)
                ::close(mfd);
            std::abort();
        }
        run_point.app = "migratory";
    } else if (point.app == faultAppUnverified) {
        run_point.app = "migratory";
        force_unverified = true;
    }

    SweepResult res = executeRealPoint(run_point, sample_interval,
                                       sim_threads, attrib);
    res.point = point;
    res.configHash = hash;
    res.attempts = attempt;
    if (force_unverified) {
        res.run.verified = false;
        res.status = PointStatus::InvariantFailure;
        res.error = "fault injection: forced verification failure";
    }
    std::string line = writePoint(res) + '\n';
    writeAll(fd, line.data(), line.size());
    ::close(fd);
    _exit(0);
}

/**
 * Host workers for a batch of @p points: --jobs (0 = every host
 * core), never more than there are points.
 */
unsigned
batchJobs(unsigned jobs, std::size_t points)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(jobs, points));
}

/**
 * Per-point completion reporting: a live one-line ticker on a
 * terminal, one plain line per point otherwise (CI logs). Both show
 * an ETA extrapolated from the mean host cost of the points completed
 * so far — coarse under a heterogeneous grid, but it replaces a
 * silent multi-minute gap. Thread-safe.
 */
struct Progress
{
    explicit Progress(std::size_t total_points) : total(total_points) {}

    void
    done(const SweepResult &r)
    {
        std::lock_guard<std::mutex> hold(mutex);
        ++completed;
        std::chrono::duration<double> elapsed = SteadyClock::now() - start;
        double secs = elapsed.count();
        double eta = secs / completed * (total - completed);
        std::fprintf(stderr,
                     "%s[%zu/%zu] %s %s%s%s | ETA %.0fs%s",
                     tty ? "\r\033[K" : "", completed, total,
                     r.point.tag.empty() ? "point" : r.point.tag.c_str(),
                     r.point.app.c_str(), r.ok() ? "" : " !",
                     r.ok() ? "" : pointStatusName(r.status),
                     eta, tty && completed != total ? "" : "\n");
    }

    const std::size_t total;
    std::size_t completed = 0;
    const bool tty = isatty(fileno(stderr)) != 0;
    const SteadyClock::time_point start = SteadyClock::now();
    std::mutex mutex;
};

/** Capped exponential backoff before retry @p attempt (1-based). */
double
backoffSeconds(unsigned attempt)
{
    double d = 0.25 * static_cast<double>(
                          1u << std::min(attempt - 1, 4u));
    return std::min(d, 4.0);
}

/** Set by the SIGINT/SIGTERM handler installed during supervision. */
volatile std::sig_atomic_t g_stopRequested = 0;

void
stopRequestHandler(int)
{
    g_stopRequested = 1;
}

} // anonymous namespace

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::NotRun:           return "not-run";
      case PointStatus::Ok:               return "ok";
      case PointStatus::NonzeroExit:      return "exit";
      case PointStatus::Signal:           return "signal";
      case PointStatus::Timeout:          return "timeout";
      case PointStatus::InvariantFailure: return "invariant";
      case PointStatus::Garbage:          return "garbage";
    }
    return "?";
}

bool
pointStatusRetryable(PointStatus status)
{
    // Host-transient failure classes are worth a retry; a failed
    // verification is deterministic simulated behavior and is
    // reported as-is.
    switch (status) {
      case PointStatus::NonzeroExit:
      case PointStatus::Signal:
      case PointStatus::Timeout:
      case PointStatus::Garbage:
        return true;
      default:
        return false;
    }
}

std::string
pointConfigHash(const SweepPoint &point, Tick sample_interval,
                bool attrib)
{
    const MachineParams &p = point.params;
    std::ostringstream key;
    auto d = [](double v) { return jsonNumber(v); };
    // Every field that determines the simulated result, pinned to a
    // versioned layout: changing the simulator's parameter space
    // should change the salt, invalidating old journal records.
    // --sim-threads is deliberately absent: the parallel kernel is
    // bit-identical at every worker count, so journaled results are
    // interchangeable across thread configurations.
    key << "cpx-point-3|" << point.app << '|' << d(point.scale) << '|'
        << point.seed << '|' << sample_interval << '|' << p.numProcs
        << '|' << p.blockBytes << '|' << p.pageBytes << '|'
        << p.flcBytes << '|' << p.flcHitLatency << '|'
        << p.flcFillLatency << '|' << p.flwbEntries << '|'
        << p.slcBytes << '|' << p.slcAccessLatency << '|'
        << p.slwbEntries << '|' << p.busTransferLatency << '|'
        << p.memAccessLatency << '|'
        << static_cast<int>(p.networkKind) << '|'
        << p.uniformHopLatency << '|' << p.meshLinkBits << '|'
        << p.chaos.enabled << '|' << p.chaos.seed << '|'
        << p.chaos.maxJitter << '|' << p.chaos.spikePercent << '|'
        << p.chaos.preservePairFifo << '|'
        << static_cast<int>(p.consistency) << '|'
        << p.protocol.prefetch << '|' << p.protocol.migratory << '|'
        << p.protocol.compUpdate << '|' << p.prefetchMaxDegree << '|'
        << p.prefetchInitialDegree << '|' << p.prefetchAdaptive << '|'
        << d(p.prefetchHighMark) << '|' << d(p.prefetchLowMark) << '|'
        << p.competitiveThreshold << '|' << p.writeCacheBlocks << '|'
        << p.writeCacheEnabled << '|'
        << static_cast<int>(p.directory.rep) << '|'
        << p.directory.pointers << '|'
        << static_cast<int>(p.directory.overflow) << '|'
        << p.directory.coarseness;
    // Appended only when enabled so every pre-attribution journal
    // hash stays valid. Attribution never changes simulated stats,
    // but an attributed result carries a block a plain run cannot
    // supply — reusing a plain journaled result for an attributed
    // request would silently drop it.
    if (attrib)
        key << "|attrib";
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key.str())));
    return buf;
}

Options
parseOptions(int argc, char **argv, Options opts,
             const ExtraOption &extra)
{
    if (const char *env = std::getenv("CPX_SCALE"))
        opts.scale = parsePositiveDouble(env, "CPX_SCALE");
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0)
            opts.scale = parsePositiveDouble(arg + 8, "--scale");
        else if (std::strncmp(arg, "--procs=", 8) == 0)
            opts.procs = parsePositiveUnsigned(arg + 8, "--procs");
        else if (std::strncmp(arg, "--jobs=", 7) == 0)
            opts.jobs = parsePositiveUnsigned(arg + 7, "--jobs");
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            opts.seed = parseU64(arg + 7, "--seed");
        else if (std::strncmp(arg, "--json=", 7) == 0)
            opts.jsonPath = arg + 7;
        else if (std::strncmp(arg, "--sample-interval=", 18) == 0)
            opts.sampleInterval =
                parseU64(arg + 18, "--sample-interval");
        else if (std::strcmp(arg, "--attrib") == 0)
            opts.attrib = true;
        else if (std::strncmp(arg, "--sim-threads=", 14) == 0)
            opts.simThreads =
                parsePositiveUnsigned(arg + 14, "--sim-threads");
        else if (std::strncmp(arg, "--isolate=", 10) == 0) {
            const char *mode = arg + 10;
            if (std::strcmp(mode, "none") == 0)
                opts.isolate = IsolateMode::None;
            else if (std::strcmp(mode, "process") == 0)
                opts.isolate = IsolateMode::Process;
            else
                fatal("bad --isolate mode '%s' (use none|process)",
                      mode);
        } else if (std::strncmp(arg, "--timeout=", 10) == 0)
            opts.timeoutSec =
                parsePositiveDouble(arg + 10, "--timeout");
        else if (std::strncmp(arg, "--retries=", 10) == 0)
            opts.retries = static_cast<unsigned>(
                parseU64(arg + 10, "--retries"));
        else if (std::strncmp(arg, "--journal=", 10) == 0)
            opts.journalPath = arg + 10;
        else if (std::strncmp(arg, "--resume=", 9) == 0) {
            // Resuming implies continuing the same journal so the
            // second run's completions land in the same file.
            opts.resumePath = arg + 9;
            if (opts.journalPath.empty())
                opts.journalPath = opts.resumePath;
        } else if (!extra || !extra(arg, opts))
            fatal("unknown option '%s' (use --scale=F --procs=N "
                  "--jobs=N --seed=N --json=PATH "
                  "--sample-interval=N --attrib --sim-threads=N "
                  "--isolate=none|process "
                  "--timeout=SECS --retries=N --journal=PATH "
                  "--resume=PATH)",
                  arg);
    }
    // Journaling and result reuse work in both modes; a deadline
    // does not — an in-process point cannot be killed safely.
    if (opts.isolate == IsolateMode::None && opts.timeoutSec > 0)
        fatal("--timeout requires --isolate=process");
    return opts;
}

std::string
describePoint(const SweepPoint &point)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s under %s / %s / %s / %u procs "
                  "(scale %.2f, seed %llu)",
                  point.app.c_str(),
                  point.params.protocol.name().c_str(),
                  point.params.consistency ==
                          Consistency::SequentialConsistency
                      ? "SC"
                      : "RC",
                  networkName(point.params).c_str(),
                  point.params.numProcs, point.scale,
                  static_cast<unsigned long long>(point.seed));
    return buf;
}

SweepRunner::SweepRunner(const Options &opts_in) : opts(opts_in) {}

SweepRunner::~SweepRunner()
{
    if (journalFd >= 0)
        ::close(journalFd);
}

std::size_t
SweepRunner::add(const std::string &app, MachineParams params,
                 const std::string &tag, unsigned procs)
{
    params.numProcs = procs ? procs : opts.procs;
    SweepPoint point{app, params, tag, opts.scale, opts.seed};
    queued.push_back(std::move(point));
    return done.size() + queued.size() - 1;
}

void
SweepRunner::loadResumeJournal()
{
    if (opts.resumePath.empty() || resumeLoaded)
        return;
    resumeLoaded = true;
    JournalLoad load = loadJournal(opts.resumePath);
    resumeByHash = std::move(load.byHash);
    if (load.stale)
        std::fprintf(stderr,
                     "cpxbench: %zu stale cpx-wire-1 record(s) in %s "
                     "ignored; their points re-run\n",
                     load.stale, opts.resumePath.c_str());
    if (load.quarantined)
        std::fprintf(stderr,
                     "cpxbench: %zu corrupt journal line(s) in %s "
                     "quarantined to %s\n",
                     load.quarantined, opts.resumePath.c_str(),
                     load.quarantineFile.c_str());
    if (load.entries)
        std::fprintf(stderr,
                     "cpxbench: resume journal %s: %zu completed "
                     "point(s) loaded\n",
                     opts.resumePath.c_str(), load.entries);
}

void
SweepRunner::journalAppend(const SweepResult &res)
{
    if (opts.journalPath.empty())
        return;
    std::lock_guard<std::mutex> hold(journalMutex);
    if (journalFd < 0) {
        journalFd = ::open(opts.journalPath.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (journalFd < 0)
            fatal("cannot open journal '%s': %s",
                  opts.journalPath.c_str(), std::strerror(errno));
    }
    std::string line = writePoint(res) + '\n';
    // Durability before ack: the record must be on disk before the
    // point counts as done, or a crash right after could leave a
    // resumed run believing less than it had finished (safe) — but
    // never more (unsafe).
    if (!writeAll(journalFd, line.data(), line.size()) ||
        ::fsync(journalFd) != 0)
        fatal("journal write to '%s' failed: %s",
              opts.journalPath.c_str(), std::strerror(errno));
}

std::size_t
SweepRunner::failedCount() const
{
    std::size_t n = 0;
    for (const SweepResult &r : done)
        if (!r.ok())
            ++n;
    return n;
}

std::string
SweepRunner::failureSummary() const
{
    std::string out;
    for (const SweepResult &r : done) {
        if (r.ok())
            continue;
        out += "\n  [" + std::string(pointStatusName(r.status)) +
               "] " + describePoint(r.point);
        if (!r.error.empty())
            out += ": " + r.error;
    }
    return out;
}

void
SweepRunner::runAll()
{
    if (queued.empty())
        return;
    loadResumeJournal();

    auto wall_start = SteadyClock::now();

    std::vector<SweepResult> batch(queued.size());
    std::vector<std::size_t> todo;
    std::size_t reused = 0;
    for (std::size_t i = 0; i < queued.size(); ++i) {
        std::string hash = pointConfigHash(
            queued[i], opts.sampleInterval, opts.attrib);
        auto it = resumeByHash.find(hash);
        if (it != resumeByHash.end()) {
            // The same config can appear under several tags; each
            // position gets a copy re-labelled with its own point.
            batch[i] = it->second;
            batch[i].point = queued[i];
            batch[i].source = ResultSource::Journal;
            ++reused;
            continue;
        }
        batch[i].point = queued[i];
        batch[i].configHash = std::move(hash);
        todo.push_back(i);
    }
    if (reused)
        std::fprintf(stderr,
                     "cpxbench: reusing %zu journaled of %zu point(s); "
                     "%zu to run\n",
                     reused, queued.size(), todo.size());

    if (!todo.empty()) {
        if (opts.isolate == IsolateMode::Process)
            runBatchProcess(batch, todo);
        else
            runBatchInProcess(batch, todo);
    }

    std::chrono::duration<double> wall =
        SteadyClock::now() - wall_start;
    hostSeconds += wall.count();

    // An interrupted run keeps whatever finished (it is journaled);
    // callers check interrupted() and skip rendering/JSON.
    for (SweepResult &r : batch)
        done.push_back(std::move(r));
    queued.clear();

    // The historical in-process contract: a failed point is fatal,
    // after every point has run, naming each failure so it can be
    // reproduced alone (earlier batches cannot have failed). Process
    // isolation records failures as data instead; callers consult
    // anyFailed() for the exit policy.
    if (opts.isolate == IsolateMode::None && anyFailed())
        fatal("sweep point(s) failed verification:%s",
              failureSummary().c_str());
}

void
SweepRunner::runBatchInProcess(std::vector<SweepResult> &batch,
                               const std::vector<std::size_t> &todo)
{
    std::atomic<std::size_t> next{0};
    Progress progress(todo.size());
    auto worker = [&]() {
        for (;;) {
            std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                return;
            std::size_t i = todo[t];
            SweepResult res = executeRealPoint(
                queued[i], opts.sampleInterval, opts.simThreads,
                opts.attrib);
            res.point = queued[i];
            res.configHash = batch[i].configHash;
            journalAppend(res);
            batch[i] = std::move(res);
            progress.done(batch[i]);
        }
    };

    unsigned jobs = batchJobs(opts.jobs, todo.size());
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    executed += todo.size();
}

void
SweepRunner::runBatchProcess(std::vector<SweepResult> &batch,
                             const std::vector<std::size_t> &todo)
{
    // One forked worker per in-flight point; the supervisor stays
    // single-threaded (fork(2) from a multi-threaded parent can
    // deadlock on locks held by other threads), so parallelism comes
    // entirely from the worker processes.
    struct Pending
    {
        std::size_t index;
        unsigned attempt;
        SteadyClock::time_point readyAt;
    };
    struct Worker
    {
        pid_t pid;
        int fd;
        std::size_t index;
        unsigned attempt;
        std::string buf;
        SteadyClock::time_point started;
        SteadyClock::time_point deadline;
        bool timedOut = false;
    };

    std::deque<Pending> pending;
    for (std::size_t i : todo)
        pending.push_back({i, 1, SteadyClock::now()});
    std::vector<Worker> live;
    const unsigned jobs = batchJobs(opts.jobs, todo.size());

    // SIGINT/SIGTERM request a graceful stop: no new dispatches,
    // live workers killed and reaped, journal already durable. No
    // SA_RESTART, so a signal wakes the poll() below immediately.
    struct sigaction sa{}, old_int{}, old_term{};
    sa.sa_handler = stopRequestHandler;
    sigemptyset(&sa.sa_mask);
    g_stopRequested = 0;
    sigaction(SIGINT, &sa, &old_int);
    sigaction(SIGTERM, &sa, &old_term);

    Progress progress(todo.size());

    auto spawn = [&](const Pending &p) {
        int fds[2];
        if (::pipe(fds) != 0)
            fatal("pipe: %s", std::strerror(errno));
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            // The child dies on its own signals; the parent owns
            // graceful-stop handling.
            std::signal(SIGINT, SIG_DFL);
            std::signal(SIGTERM, SIG_DFL);
            runWorkerChild(queued[p.index], opts.sampleInterval,
                           opts.simThreads, opts.attrib, fds[1],
                           batch[p.index].configHash, p.attempt);
        }
        ::close(fds[1]);
        int flags = ::fcntl(fds[0], F_GETFL, 0);
        ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
        auto now = SteadyClock::now();
        auto deadline =
            opts.timeoutSec > 0
                ? now + std::chrono::duration_cast<
                            SteadyClock::duration>(
                            std::chrono::duration<double>(
                                opts.timeoutSec))
                : SteadyClock::time_point::max();
        live.push_back(Worker{pid, fds[0], p.index, p.attempt, {},
                              now, deadline, false});
    };

    // Reap the worker, classify the outcome, and either re-queue the
    // point for a retry or finalize it (journal + batch).
    auto finalize = [&](Worker &w) {
        int wstatus = 0;
        while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {}
        ::close(w.fd);
        std::chrono::duration<double> attempt_secs =
            SteadyClock::now() - w.started;

        SweepResult res;
        res.point = queued[w.index];
        res.configHash = batch[w.index].configHash;
        res.attempts = w.attempt;
        res.hostSeconds = attempt_secs.count();
        if (w.timedOut) {
            res.status = PointStatus::Timeout;
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "timed out after %.1fs", opts.timeoutSec);
            res.error = buf;
        } else if (WIFSIGNALED(wstatus)) {
            res.status = PointStatus::Signal;
            res.error = std::string("killed by signal ") +
                        std::to_string(WTERMSIG(wstatus));
        } else if (WIFEXITED(wstatus) &&
                   WEXITSTATUS(wstatus) != 0) {
            res.status = PointStatus::NonzeroExit;
            res.error = "exited with status " +
                        std::to_string(WEXITSTATUS(wstatus));
        } else {
            // Clean exit: the single point record is the result.
            std::string line = w.buf;
            while (!line.empty() && (line.back() == '\n' ||
                                     line.back() == '\r'))
                line.pop_back();
            SweepResult parsed;
            std::string perr;
            if (readPoint(line, parsed, perr)) {
                res.run = std::move(parsed.run);
                res.status = parsed.status;
                res.error = parsed.error;
                res.hostSeconds = parsed.hostSeconds;
            } else {
                res.status = PointStatus::Garbage;
                res.error = "unparseable worker output: " + perr;
            }
        }

        if (!res.ok() && pointStatusRetryable(res.status) &&
            w.attempt <= opts.retries) {
            double delay = backoffSeconds(w.attempt);
            std::fprintf(stderr,
                         "cpxbench: point '%s' %s (%s); retry %u/%u "
                         "in %.2gs\n",
                         queued[w.index].app.c_str(),
                         pointStatusName(res.status),
                         res.error.c_str(), w.attempt, opts.retries,
                         delay);
            pending.push_back(
                {w.index, w.attempt + 1,
                 SteadyClock::now() +
                     std::chrono::duration_cast<
                         SteadyClock::duration>(
                         std::chrono::duration<double>(delay))});
            return;
        }

        journalAppend(res);
        ++executed;
        batch[w.index] = std::move(res);
        progress.done(batch[w.index]);
    };

    while ((!pending.empty() || !live.empty()) && !g_stopRequested) {
        auto now = SteadyClock::now();

        // Dispatch pending points whose backoff has elapsed.
        while (live.size() < jobs && !pending.empty()) {
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it)
                if (it->readyAt <= now) {
                    ready = it;
                    break;
                }
            if (ready == pending.end())
                break;
            Pending p = *ready;
            pending.erase(ready);
            spawn(p);
        }

        // How long may we sleep? Until the nearest worker deadline
        // or pending retry, capped so ticker math stays fresh.
        auto wake = now + std::chrono::milliseconds(500);
        for (const Worker &w : live)
            wake = std::min(wake, w.deadline);
        for (const Pending &p : pending)
            if (live.size() < jobs)
                wake = std::min(wake, p.readyAt);
        int timeout_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   wake - now)
                   .count()));

        if (live.empty()) {
            ::poll(nullptr, 0, timeout_ms);
            continue;
        }

        std::vector<pollfd> fds(live.size());
        for (std::size_t i = 0; i < live.size(); ++i)
            fds[i] = pollfd{live[i].fd, POLLIN, 0};
        int rc = ::poll(fds.data(), fds.size(), timeout_ms);
        if (rc < 0 && errno != EINTR)
            fatal("poll: %s", std::strerror(errno));

        // Drain readable pipes; EOF means the worker is done.
        for (std::size_t i = 0; i < live.size();) {
            bool eof = false;
            if (rc > 0 && (fds[i].revents & (POLLIN | POLLHUP))) {
                char buf[65536];
                for (;;) {
                    ssize_t n = ::read(live[i].fd, buf, sizeof(buf));
                    if (n > 0) {
                        live[i].buf.append(buf, n);
                        continue;
                    }
                    if (n == 0)
                        eof = true;
                    break;
                }
            }
            if (eof) {
                finalize(live[i]);
                fds.erase(fds.begin() + i);
                live.erase(live.begin() + i);
            } else {
                ++i;
            }
        }

        // Enforce deadlines: SIGKILL, then let the EOF path reap.
        now = SteadyClock::now();
        for (Worker &w : live) {
            if (!w.timedOut && now >= w.deadline) {
                w.timedOut = true;
                ::kill(w.pid, SIGKILL);
            }
        }
    }

    if (g_stopRequested) {
        interruptedFlag = true;
        for (Worker &w : live) {
            ::kill(w.pid, SIGKILL);
            int wstatus = 0;
            while (::waitpid(w.pid, &wstatus, 0) < 0 &&
                   errno == EINTR) {}
            ::close(w.fd);
        }
        live.clear();
        std::fprintf(stderr,
                     "\ncpxbench: interrupted — %zu/%zu point(s) "
                     "completed%s\n",
                     progress.completed, todo.size(),
                     opts.journalPath.empty()
                         ? ""
                         : "; journaled work is resumable with "
                           "--resume");
    }

    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
}

const SweepResult &
SweepRunner::operator[](std::size_t handle) const
{
    if (handle >= done.size())
        fatal("sweep handle %zu not run yet (did you call "
              "runAll()?)",
              handle);
    return done[handle];
}

// --- JSON output -----------------------------------------------------------

void
writeJson(const std::string &path, const std::string &suite,
          const Options &opts,
          const std::vector<SweepResult> &results,
          double total_host_seconds)
{
    char timestamp[32] = "";
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc))
        std::strftime(timestamp, sizeof(timestamp),
                      "%Y-%m-%dT%H:%M:%SZ", &tm_utc);

    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"cpx-sweep-1\",\n";
    out << "  \"suite\": \"" << jsonEscape(suite) << "\",\n";
    out << "  \"timestamp\": \"" << timestamp << "\",\n";
    out << "  \"jobs\": " << opts.jobs << ",\n";
    out << "  \"scale\": " << jsonNumber(opts.scale) << ",\n";
    out << "  \"procs\": " << opts.procs << ",\n";
    out << "  \"simThreads\": " << opts.simThreads << ",\n";
    out << "  \"hostSeconds\": " << jsonNumber(total_host_seconds)
        << ",\n";
    out << "  \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i)
        out << (i ? ",\n    " : "\n    ") << writePoint(results[i]);
    out << "\n  ]\n}\n";

    // Atomic replace (tmp + fsync + rename): a crash mid-write must
    // never leave a torn results file behind to poison a later
    // --baseline comparison.
    std::string error;
    if (!atomicWriteFile(path, out.str(), error))
        fatal("%s", error.c_str());
}

// --- JSON reader -----------------------------------------------------------

const JsonValue &
JsonValue::at(const std::string &key) const
{
    auto it = members.find(key);
    if (it == members.end())
        fatal("JSON object has no member '%s'", key.c_str());
    return it->second;
}

double
numberOr(const JsonValue &obj, const char *key, double fallback)
{
    if (obj.kind == JsonValue::Kind::Object && obj.has(key) &&
        obj.at(key).kind == JsonValue::Kind::Number)
        return obj.at(key).number;
    return fallback;
}

std::string
textOr(const JsonValue &obj, const char *key, const char *fallback)
{
    if (obj.kind == JsonValue::Kind::Object && obj.has(key) &&
        obj.at(key).kind == JsonValue::Kind::String)
        return obj.at(key).text;
    return fallback;
}

namespace
{

struct JsonParser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit JsonParser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &why)
    {
        if (error.empty())
            error = why + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return fail(std::string("expected '") + c + "'");
    }

    bool
    parseLiteral(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (text.compare(pos, n, lit) != 0)
            return fail(std::string("bad literal (expected ") + lit +
                        ")");
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("unterminated escape");
                char e = text[pos++];
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'n':  out += '\n'; break;
                  case 'r':  out += '\r'; break;
                  case 't':  out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            cp |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    // Our documents only escape control characters;
                    // encode the BMP code point as UTF-8.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xc0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipSpace();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return false;
                JsonValue member;
                if (!parseValue(member))
                    return false;
                out.members.emplace(std::move(key),
                                    std::move(member));
                skipSpace();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    skipSpace();
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipSpace();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                JsonValue item;
                if (!parseValue(item))
                    return false;
                out.items.push_back(std::move(item));
                skipSpace();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return parseLiteral("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return parseLiteral("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return parseLiteral("null");
        }
        // Number.
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("unexpected character");
        char *end = nullptr;
        std::string num = text.substr(start, pos - start);
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(num.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number '" + num + "'");
        // Keep the raw token: integer consumers (the point codec)
        // reread it with strtoull so values beyond 2^53
        // survive exactly; the double above is lossy there.
        out.text = std::move(num);
        return true;
    }
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text);
    if (!parser.parseValue(out)) {
        error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        error = "trailing garbage at offset " +
                std::to_string(parser.pos);
        return false;
    }
    return true;
}

// --- point codec ------------------------------------------------------------
//
// The cpx-sweep-1 point object is the one record format: the sweep
// file lists it, the journal and the worker pipe carry it one per
// line. pointFields() is its single field table; PointCodec<false>
// walks it to encode a record and PointCodec<true> walks it to
// restore a SweepResult bit-identically — u64 counters as exact
// decimal integers (reread with strtoull, not through a double),
// doubles as %.17g. Derived members (rates,
// percentiles) exist for readers of the sweep file and are skipped on
// decode. The baseline gate compares every block except hostSeconds
// and "kernel"; the "exact" block carries what the other blocks drop,
// so a record restores completely.

namespace
{

/**
 * Marker of the retired per-point wire format, which every such
 * record began with. Its records are stale, never corrupt: they are
 * skipped and their points re-run.
 */
constexpr const char *retiredWirePrefix = "{\"schema\":\"cpx-wire-1\"";

const char *
consistencyName(const MachineParams &params)
{
    return params.consistency == Consistency::SequentialConsistency
               ? "SC"
               : "RC";
}

/**
 * The optional blocks of a point: the interval-sampled series
 * (--sample-interval, DESIGN.md §13; deltas row-major, one inner
 * array per window, columns in "metrics" order) and the causal stall
 * attribution (--attrib, DESIGN.md §17). Separate from pointFields()
 * so readOptionalBlocks() can decode them from results files written
 * before the rest of the record took its present shape.
 */
template <class Codec, class Stats>
void
optionalBlocks(Codec &c, Stats &s)
{
    bool sampled = !s.timeseries.empty();
    c.optional("timeseries", sampled, [&] {
        auto &ts = s.timeseries;
        c.field("interval", ts.interval);
        c.field("metrics", ts.names);
        c.field("ticks", ts.ticks);
        c.matrix("deltas", ts.deltas, ts.names.size());
        c.check(ts.interval > 0 && !ts.names.empty() &&
                    ts.rows() == ts.ticks.size(),
                "malformed timeseries block");
    });
    c.optional("attribution", s.attribution.enabled, [&] {
        auto &ar = s.attribution;
        c.block("classes", [&] {
            for (unsigned k = 0; k < numTxnKinds; ++k) {
                auto &g = ar.classes[k];
                bool seen = g.count != 0;  // zero rows stay default
                c.optional(txnKindName(static_cast<TxnKind>(k)), seen,
                           [&] {
                    c.field("count", g.count);
                    c.field("latency", g.latency);
                    c.field("request", g.request);
                    c.field("dirQueue", g.dirQueue);
                    c.field("dirService", g.dirService);
                    c.field("ownerFetch", g.ownerFetch);
                    c.field("invalFanout", g.invalFanout);
                    c.field("ackCollect", g.ackCollect);
                    c.field("dataReturn", g.dataReturn);
                    c.field("fill", g.fill);
                    c.field("dataHops", g.dataHops);
                });
            }
        });
        c.block("locks", [&] {
            c.field("count", ar.locks.count);
            c.field("latency", ar.locks.latency);
            c.field("homeQueue", ar.locks.homeQueue);
            c.field("transfer", ar.locks.transfer);
        });
        c.rows("homes", ar.homes, [&](auto &h) {
            c.field("node", h.node);
            c.field("dirRequests", h.dirRequests);
            c.field("dirWaitTotal", h.dirWaitTotal);
            c.field("dirWaitP99", h.dirWaitP99);
            c.field("lockGrants", h.lockGrants);
            c.field("lockWaitTotal", h.lockWaitTotal);
            c.field("lockWaitP99", h.lockWaitP99);
        });
        auto hot = [&](auto &h) {
            c.field("addr", h.addr);
            c.field("home", h.home);
            c.field("count", h.count);
            c.field("totalWait", h.totalWait);
            c.field("p99Wait", h.p99Wait);
        };
        c.rows("hotBlocks", ar.hotBlocks, hot);
        c.rows("hotLocks", ar.hotLocks, hot);
        c.field("matchedTxns", ar.matchedTxns);
        c.field("unmatchedDir", ar.unmatchedDir);
        c.field("matchedLocks", ar.matchedLocks);
        c.field("unmatchedLocks", ar.unmatchedLocks);
        c.field("fanoutTotal", ar.fanoutTotal);
        c.field("fanoutImprecise", ar.fanoutImprecise);
    });
}

/**
 * The field table. @p c is a PointCodec; @p r a const SweepResult
 * when encoding. The codec's primitives:
 *   field(key, lvalue)          encoded and decoded
 *   derived(key, value)         encoded only
 *   alias(key, value, lvalue)   encodes value, decodes into lvalue
 *   block / optional / rows     nested objects / arrays of objects
 *   histogram / histogramSum / matrix / check
 */
template <class Codec, class Result>
void
pointFields(Codec &c, Result &r)
{
    const MachineParams &p = r.point.params;
    auto &run = r.run;
    auto &s = run.stats;
    c.field("tag", r.point.tag);
    c.field("app", r.point.app);
    c.block("config", [&] {
        c.alias("protocol", p.protocol.name(), s.protocol);
        c.alias("consistency", consistencyName(p), s.consistency);
        c.derived("network", networkName(p));
        c.derived("procs", p.numProcs);
        c.derived("scale", r.point.scale);
        c.derived("seed", r.point.seed);
        c.derived("slcBytes", p.slcBytes);
        c.derived("threshold", p.competitiveThreshold);
        c.derived("writeCache", p.writeCacheEnabled);
    });
    c.field("configHash", r.configHash);
    c.field("status", r.status);
    c.field("attempts", r.attempts);
    c.field("verified", run.verified);
    c.field("hostSeconds", r.hostSeconds);
    c.block("directory", [&] {
        c.derived("rep", p.directory.name());
        if (r.ok()) {
            c.field("overflowBroadcasts", s.dirOverflowBroadcasts);
            c.field("pointerEvictions", s.dirPointerEvictions);
        }
    });
    // A failed point carries its classification, never stats: nothing
    // renders, gates or resumes from them.
    if (!r.ok()) {
        c.field("error", r.error);
        return;
    }
    c.field("execTime", run.execTime);
    if constexpr (Codec::reading)
        s.execTime = run.execTime;
    c.block("breakdown", [&] {
        c.field("busy", s.busy);
        c.field("readStall", s.readStall);
        c.field("writeStall", s.writeStall);
        c.field("acquireStall", s.acquireStall);
        c.field("releaseStall", s.releaseStall);
    });
    c.block("misses", [&] {
        c.derived("coldPct", s.coldMissRate());
        c.derived("cohPct", s.cohMissRate());
        c.field("sharedAccesses", s.sharedAccesses);
        c.field("coldRead", s.coldReadMisses);
        c.field("cohRead", s.cohReadMisses);
        c.field("replRead", s.replReadMisses);
        c.field("write", s.writeMissesTotal);
        c.field("avgReadLatency", s.avgReadMissLatency);
    });
    c.block("traffic", [&] {
        c.field("bytes", s.netBytes);
        c.field("messages", s.netMessages);
    });
    c.block("protocolEvents", [&] {
        c.field("prefetchesIssued", s.prefetchesIssued);
        c.field("prefetchesUseful", s.prefetchesUseful);
        c.field("softwarePrefetches", s.softwarePrefetches);
        c.field("combinedWrites", s.combinedWrites);
        c.field("migratoryDetections", s.migratoryDetections);
        c.field("invalidationsSent", s.invalidationsSent);
    });
    auto histograms = [&](auto &&visit) {
        visit("readMiss", s.readMissLatency);
        visit("ownership", s.ownershipLatency);
        visit("prefetchFill", s.prefetchFillLatency);
    };
    c.block("latency", [&] {
        histograms([&](const char *key, auto &h) { c.histogram(key, h); });
    });
    c.block("exact", [&] {
        c.field("classBytes", s.classBytes);
        c.field("ownershipRequests", s.ownershipRequests);
        c.field("updatesForwarded", s.updatesForwarded);
        c.field("counterInvalidations", s.counterInvalidations);
        c.block("latencySum", [&] {
            histograms([&](const char *key, auto &h) {
                c.histogramSum(key, h);
            });
        });
    });
    optionalBlocks(c, s);
    c.block("kernel", [&] {
        c.field("eventsExecuted", s.eventsExecuted);
        c.field("peakPendingEvents", s.peakPendingEvents);
        c.field("scheduleAllocs", s.scheduleAllocs);
        c.field("slabRounds", s.slabRounds);
        c.field("crossMessages", s.crossMessages);
        c.field("lookahead", s.lookahead);
        c.field("simThreads", s.simThreads);
    });
}

/**
 * Walks the field table in one direction: encoding into @c out as one
 * compact JSON line, or decoding from a parsed record. Decoding
 * records the first missing or mistyped member in @c error (never a
 * fatal() like JsonValue::at: a corrupt journal line must be
 * reportable) and turns every later primitive into a no-op.
 */
template <bool Reading>
class PointCodec
{
  public:
    static constexpr bool reading = Reading;
    std::string out = "{";
    std::string error;

    explicit PointCodec(const JsonValue *record = nullptr) : cur(record) {}

    template <class T>
    void
    field(const char *key, T &v)
    {
        if constexpr (Reading) {
            if (const JsonValue *j = member(key))
                get(*j, v, key);
        } else {
            name(key);
            put(v);
        }
    }

    template <class T>
    void
    derived(const char *key, const T &v)
    {
        if constexpr (!Reading)
            field(key, v);
    }

    template <class T, class U>
    void
    alias(const char *key, const T &v, U &lvalue)
    {
        if constexpr (Reading)
            field(key, lvalue);
        else
            field(key, v);
    }

    template <class Fn>
    void
    block(const char *key, Fn &&fn)
    {
        if constexpr (Reading) {
            const JsonValue *j = member(key);
            if (j && expect(*j, JsonValue::Kind::Object, key))
                visit(j, fn);
        } else {
            name(key);
            out += '{';
            first = true;
            fn();
            out += '}';
            first = false;
        }
    }

    template <class B, class Fn>
    void
    optional(const char *key, B &present, Fn &&fn)
    {
        if constexpr (Reading)
            present = cur->has(key);
        if (present)
            block(key, fn);
    }

    /** An array of objects, one per element of @p rows. */
    template <class Rows, class Fn>
    void
    rows(const char *key, Rows &rows, Fn &&fn)
    {
        if constexpr (Reading) {
            const JsonValue *j = member(key);
            if (!j || !expect(*j, JsonValue::Kind::Array, key))
                return;
            rows.resize(j->items.size());
            for (std::size_t i = 0; i < rows.size(); ++i)
                if (expect(j->items[i], JsonValue::Kind::Object, key))
                    visit(&j->items[i], [&] { fn(rows[i]); });
        } else {
            name(key);
            out += '[';
            for (std::size_t i = 0; i < rows.size(); ++i) {
                out += i ? ",{" : "{";
                first = true;
                fn(rows[i]);
                out += '}';
            }
            out += ']';
            first = false;
        }
    }

    /** A row-major matrix of @p width columns, one array per row. */
    template <class Flat>
    void
    matrix(const char *key, Flat &flat, std::size_t width)
    {
        std::vector<std::vector<std::uint64_t>> nested;
        for (std::size_t i = 0; width && i < flat.size(); i += width)
            nested.emplace_back(flat.begin() + i,
                                flat.begin() + i + width);
        field(key, nested);
        if constexpr (Reading) {
            for (const auto &row : nested) {
                check(row.size() == width, "ragged matrix row");
                flat.insert(flat.end(), row.begin(), row.end());
            }
        }
    }

    /**
     * The histogram summary of the gated "latency" block. Its exact
     * sum rides apart (histogramSum) because that block may not grow.
     */
    template <class H>
    void
    histogram(const char *key, H &h)
    {
        Accumulator a = h.summary();
        std::uint64_t count = a.count(), width = h.bucketWidth(),
                      overflow = h.overflowCount();
        double min = a.min(), max = a.max();
        // Trailing zero buckets are trimmed: the geometry is fixed.
        std::vector<std::uint64_t> counts = h.bucketCounts();
        while (!counts.empty() && counts.back() == 0)
            counts.pop_back();
        block(key, [&] {
            field("count", count);
            derived("mean", a.mean());
            field("min", min);
            field("max", max);
            derived("p50", h.percentile(0.50));
            derived("p90", h.percentile(0.90));
            derived("p99", h.percentile(0.99));
            field("bucketWidth", width);
            field("overflow", overflow);
            field("buckets", counts);
        });
        if constexpr (Reading) {
            a.restore(count, 0.0, min, max);
            check(width == h.bucketWidth() &&
                      h.restore(counts, overflow, a),
                  "histogram geometry mismatch");
        }
    }

    template <class H>
    void
    histogramSum(const char *key, H &h)
    {
        Accumulator a = h.summary();
        double sum = a.sum();
        field(key, sum);
        if constexpr (Reading) {
            a.restore(a.count(), sum, a.min(), a.max());
            std::vector<std::uint64_t> counts = h.bucketCounts();
            h.restore(counts, h.overflowCount(), a);
        }
    }

    /** Decoding only: reject the record unless @p ok holds. */
    void
    check(bool ok, const char *what)
    {
        if (Reading && !ok && error.empty())
            error = what;
    }

  private:
    const JsonValue *cur;  //!< object being decoded
    bool first = true;     //!< nothing encoded yet at this level

    void
    name(const char *key)
    {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += key;
        out += "\":";
    }

    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, PointStatus>) {
            put(pointStatusName(v));
        } else if constexpr (std::is_integral_v<T>) {
            out += std::to_string(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            out += jsonNumber(static_cast<double>(v));
        } else if constexpr (std::is_convertible_v<T, std::string>) {
            out += '"' + jsonEscape(v) + '"';
        } else {  // arrays and vectors
            out += '[';
            const char *sep = "";
            for (const auto &item : v) {
                out += sep;
                sep = ",";
                put(item);
            }
            out += ']';
        }
    }

    template <class Fn>
    void
    visit(const JsonValue *object, Fn &&fn)
    {
        const JsonValue *outer = cur;
        cur = object;
        fn();
        cur = outer;
    }

    bool
    expect(const JsonValue &j, JsonValue::Kind kind, const char *key)
    {
        if (j.kind != kind && error.empty())
            error = std::string("mistyped '") + key + "'";
        return error.empty();
    }

    const JsonValue *
    member(const char *key)
    {
        if (!error.empty())
            return nullptr;
        auto it = cur->members.find(key);
        if (it != cur->members.end())
            return &it->second;
        error = std::string("missing '") + key + "'";
        return nullptr;
    }

    template <class T>
    void
    get(const JsonValue &j, T &v, const char *key)
    {
        using Kind = JsonValue::Kind;
        if constexpr (std::is_same_v<T, bool>) {
            if (expect(j, Kind::Bool, key))
                v = j.boolean;
        } else if constexpr (std::is_same_v<T, PointStatus>) {
            int i = 0;
            while (i <= static_cast<int>(PointStatus::Garbage) &&
                   j.text != pointStatusName(static_cast<PointStatus>(i)))
                ++i;
            v = static_cast<PointStatus>(i);
            check(i <= static_cast<int>(PointStatus::Garbage),
                  "unknown point status");
        } else if constexpr (std::is_integral_v<T>) {
            if (expect(j, Kind::Number, key))
                v = static_cast<T>(jsonU64(j));
        } else if constexpr (std::is_floating_point_v<T>) {
            if (expect(j, Kind::Number, key))
                v = j.number;
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (expect(j, Kind::String, key))
                v = j.text;
        } else if (expect(j, Kind::Array, key)) {  // arrays, vectors
            if constexpr (std::is_array_v<T>)
                check(j.items.size() == std::extent_v<T>,
                      "array of the wrong length");
            else
                v.resize(j.items.size());
            for (std::size_t i = 0; i < j.items.size() && error.empty();
                 ++i)
                get(j.items[i], v[i], key);
        }
    }
};

} // anonymous namespace

std::string
writePoint(const SweepResult &result)
{
    PointCodec<false> codec;
    pointFields(codec, result);
    return codec.out + '}';
}

bool
readPoint(const std::string &line, SweepResult &out, std::string &error)
{
    JsonValue doc;
    if (!parseJson(line, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object) {
        error = "point record is not a JSON object";
        return false;
    }
    out = SweepResult{};
    PointCodec<true> codec(&doc);
    pointFields(codec, out);
    error = codec.error;
    return error.empty();
}

bool
readOptionalBlocks(const JsonValue &point, RunResult &out,
                   std::string &error)
{
    PointCodec<true> codec(&point);
    optionalBlocks(codec, out);
    error = codec.error;
    return error.empty();
}

bool
loadJsonFile(const std::string &path, JsonValue &doc, std::string &error)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    if (!parseJson(text.str(), doc, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

namespace
{

/** Read a file and parse it as a cpx-sweep-1 document. */
bool
loadSweepDoc(const std::string &path, JsonValue &doc,
             std::string &error)
{
    if (!loadJsonFile(path, doc, error))
        return false;
    if (textOr(doc, "schema", "") != "cpx-sweep-1") {
        error = path + ": missing cpx-sweep-1 schema marker";
        return false;
    }
    if (!doc.has("points") ||
        doc.at("points").kind != JsonValue::Kind::Array) {
        error = path + ": missing points array";
        return false;
    }
    return true;
}

std::string
pointLabel(const JsonValue &point)
{
    std::string label = textOr(point, "tag", "");
    if (point.has("app"))
        label += (label.empty() ? "" : "/") + point.at("app").text;
    return label.empty() ? "?" : label;
}

} // anonymous namespace

bool
validateResultsFile(const std::string &path, std::string &error,
                    bool allow_failed)
{
    JsonValue doc;
    if (!loadSweepDoc(path, doc, error))
        return false;
    if (doc.at("points").items.empty()) {
        error = path + ": no sweep points recorded";
        return false;
    }
    std::string failed;
    for (const JsonValue &point : doc.at("points").items) {
        if (point.kind != JsonValue::Kind::Object ||
            !point.has("verified") || !point.has("app") ||
            !point.has("config")) {
            error = path + ": malformed sweep point";
            return false;
        }
        // Points carry a "status" since the fault-isolation work;
        // files written before then are all-ok by construction.
        const std::string status = textOr(point, "status", "ok");
        if (status != "ok") {
            if (!point.has("error")) {
                error = path + ": failed point without an error "
                        "message";
                return false;
            }
            failed += "\n  [" + status + "] " + pointLabel(point) +
                      ": " + point.at("error").text;
            continue;
        }
        if (!point.has("execTime")) {
            error = path + ": malformed sweep point";
            return false;
        }
        if (!point.at("verified").boolean) {
            failed += "\n  [unverified] " + pointLabel(point);
            continue;
        }
        // The optional blocks (sampled series, attribution) must
        // decode in full: cpxreport renders from them.
        RunResult scratch;
        if (!readOptionalBlocks(point, scratch, error)) {
            error = path + ": malformed point block: " + error;
            return false;
        }
    }
    if (!failed.empty() && !allow_failed) {
        error = path + ": failed sweep point(s):" + failed;
        return false;
    }
    return true;
}

bool
validateTraceFile(const std::string &path, std::string &error)
{
    JsonValue doc;
    if (!loadJsonFile(path, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object ||
        !doc.has("traceEvents") ||
        doc.at("traceEvents").kind != JsonValue::Kind::Array) {
        error = path + ": missing traceEvents array";
        return false;
    }
    const auto &events = doc.at("traceEvents").items;
    if (events.empty()) {
        error = path + ": empty traceEvents array";
        return false;
    }

    // Async transaction spans must pair up: per id, as many "b"
    // begins as "e" ends (the exporter degrades unmatched spans to
    // instants, so an imbalance means exporter breakage). Counter
    // events ("C", the interval-metric tracks) must each carry a
    // numeric args.value and be non-decreasing in time per track.
    std::map<std::string, long> open_spans;
    std::map<std::string, double> counter_last_ts;
    for (const JsonValue &ev : events) {
        if (ev.kind != JsonValue::Kind::Object || !ev.has("ph") ||
            !ev.has("pid")) {
            error = path + ": malformed trace event";
            return false;
        }
        const std::string &ph = ev.at("ph").text;
        if (ph == "M")
            continue;  // metadata: process/thread names
        if (!ev.has("ts") || !ev.has("name")) {
            error = path + ": trace event missing ts/name";
            return false;
        }
        if (ph == "b" || ph == "e") {
            if (!ev.has("id")) {
                error = path + ": async event missing id";
                return false;
            }
            open_spans[ev.at("id").text] += ph == "b" ? 1 : -1;
        } else if (ph == "C") {
            if (!ev.has("args") ||
                ev.at("args").kind != JsonValue::Kind::Object ||
                !ev.at("args").has("value") ||
                ev.at("args").at("value").kind !=
                    JsonValue::Kind::Number) {
                error = path +
                        ": counter event missing numeric args.value";
                return false;
            }
            const std::string &track = ev.at("name").text;
            double ts = ev.at("ts").number;
            auto it = counter_last_ts.find(track);
            if (it != counter_last_ts.end() && ts < it->second) {
                error = path + ": counter track '" + track +
                        "' goes backwards in time";
                return false;
            }
            counter_last_ts[track] = ts;
        } else if (ph != "i") {
            error = path + ": unexpected phase '" + ph + "'";
            return false;
        }
    }
    for (const auto &[id, balance] : open_spans) {
        if (balance != 0) {
            error = path + ": unbalanced b/e events for id " + id;
            return false;
        }
    }
    return true;
}

namespace
{

bool
jsonEquals(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        return a.boolean == b.boolean;
      case JsonValue::Kind::Number:
        // %.17g round-trips doubles exactly, so simulated stats from
        // identical runs parse back to identical values.
        return a.number == b.number;
      case JsonValue::Kind::String:
        return a.text == b.text;
      case JsonValue::Kind::Array:
        if (a.items.size() != b.items.size())
            return false;
        for (std::size_t i = 0; i < a.items.size(); ++i)
            if (!jsonEquals(a.items[i], b.items[i]))
                return false;
        return true;
      case JsonValue::Kind::Object:
        if (a.members.size() != b.members.size())
            return false;
        for (const auto &[key, value] : a.members) {
            auto it = b.members.find(key);
            if (it == b.members.end() ||
                !jsonEquals(value, it->second))
                return false;
        }
        return true;
    }
    return false;
}

} // anonymous namespace

bool
compareToBaseline(const std::string &path,
                  const std::string &baseline_path,
                  std::string &error)
{
    JsonValue cur, base;
    if (!loadSweepDoc(path, cur, error) ||
        !loadSweepDoc(baseline_path, base, error))
        return false;
    const auto &cur_pts = cur.at("points").items;
    const auto &base_pts = base.at("points").items;
    if (cur_pts.size() != base_pts.size()) {
        error = path + ": " + std::to_string(cur_pts.size()) +
                " points vs " + std::to_string(base_pts.size()) +
                " in baseline " + baseline_path;
        return false;
    }

    // Every simulated stat is gated. Exempt: host time (hostSeconds,
    // the document's timestamp and jobs) and the kernel block, whose
    // work counts move under exact kernel optimizations such as
    // wakeup elision (DESIGN.md §8.1) while every stat above holds.
    static const char *const gated[] = {
        "tag",      "app",    "config",  "verified",
        "directory", "execTime", "breakdown", "misses", "traffic",
        "protocolEvents", "latency", "exact", "timeseries",
    };
    // Collect every divergent point (with its config hash, so the
    // culprit can be found and re-run by name) instead of bailing at
    // the first: one look at the message shows whether a drift is a
    // single config or systemic.
    std::vector<std::string> diffs;
    for (std::size_t i = 0; i < cur_pts.size(); ++i) {
        const JsonValue &c = cur_pts[i];
        const JsonValue &b = base_pts[i];
        for (const char *field : gated) {
            const bool in_c = c.has(field);
            const bool in_b = b.has(field);
            if (in_c != in_b ||
                (in_c && !jsonEquals(c.at(field), b.at(field)))) {
                std::string hash =
                    c.has("configHash") ? c.at("configHash").text
                                        : std::string("?");
                diffs.push_back("point " + std::to_string(i) + " (" +
                                pointLabel(c) + ", hash=" + hash +
                                ") drifted in '" + field + "'");
                break;
            }
        }
    }
    if (!diffs.empty()) {
        constexpr std::size_t max_listed = 40;
        error = path + ": " + std::to_string(diffs.size()) +
                " point(s) drifted from baseline " + baseline_path +
                ":";
        for (std::size_t i = 0;
             i < diffs.size() && i < max_listed; ++i)
            error += "\n  " + diffs[i];
        if (diffs.size() > max_listed)
            error += "\n  … and " +
                     std::to_string(diffs.size() - max_listed) +
                     " more";
        return false;
    }

    return true;
}

JournalLoad
loadJournal(const std::string &path)
{
    JournalLoad load;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return load;
    std::ofstream quarantine;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(file, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line.rfind(retiredWirePrefix, 0) == 0) {
            ++load.stale;
            continue;
        }
        SweepResult res;
        std::string err;
        if (!readPoint(line, res, err)) {
            // A corrupt or truncated line (e.g. a crash mid-append on
            // a filesystem without ordered data) is preserved in a
            // sidecar, never silently dropped: losing a record is
            // recoverable, hiding the corruption is not.
            if (!quarantine.is_open()) {
                load.quarantineFile = path + ".quarantine";
                quarantine.open(load.quarantineFile,
                                std::ios::binary | std::ios::app);
            }
            quarantine << line << "\n";
            ++load.quarantined;
            std::fprintf(stderr,
                         "cpxbench: %s:%zu: corrupt journal line "
                         "(%s)\n",
                         path.c_str(), lineno, err.c_str());
            continue;
        }
        // Only a completed point is reusable. A failed outcome may be
        // host-transient (a crash, a timeout), so its point re-runs.
        if (!res.ok())
            continue;
        res.source = ResultSource::Journal;
        load.byHash[res.configHash] = std::move(res);
        ++load.entries;
    }
    return load;
}

// --- bench-module registry -------------------------------------------------

namespace
{

std::vector<BenchDef> &
mutableRegistry()
{
    static std::vector<BenchDef> registry;
    return registry;
}

} // anonymous namespace

detail::BenchRegistrar::BenchRegistrar(const BenchDef &def)
{
    mutableRegistry().push_back(def);
}

const std::vector<BenchDef> &
benchRegistry()
{
    std::vector<BenchDef> &registry = mutableRegistry();
    std::stable_sort(registry.begin(), registry.end(),
                     [](const BenchDef &a, const BenchDef &b) {
                         return a.order < b.order;
                     });
    return registry;
}

} // namespace cpx::bench
