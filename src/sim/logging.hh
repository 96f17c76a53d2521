/**
 * @file
 * Error reporting and optional debug tracing.
 *
 * Follows the gem5 convention: panic() flags simulator bugs (aborts),
 * fatal() flags user/configuration errors (clean exit), warn() and
 * inform() report conditions without stopping the simulation.
 *
 * Debug tracing is compiled in unconditionally but costs a single
 * branch when disabled; enable it per component with
 * Logger::enable("Dir") or Logger::enableAll().
 */

#ifndef CPX_SIM_LOGGING_HH
#define CPX_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <string>
#include <unordered_set>

namespace cpx
{

/**
 * Process-wide debug-trace switchboard. Components are identified by
 * short tag strings ("Dir", "SLC", "Net", ...).
 */
class Logger
{
  public:
    /** Enable tracing for one component tag. */
    static void enable(const std::string &tag);

    /** Enable tracing for every component. */
    static void enableAll();

    /** Disable all tracing. */
    static void disableAll();

    /** @return true iff tracing is on for @p tag. */
    static bool enabled(const std::string &tag);

    /** printf-style trace line, prefixed with the current tick. */
    static void trace(const char *tag, const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /**
     * Hook used by trace() to prefix messages with simulated time.
     * The event queue installs itself here on construction and
     * clears it on destruction. The pointer is thread-local so that
     * independent Systems running on separate host threads (the
     * sweep runner, bench/runner.hh) each stamp their own ticks.
     */
    static void setTickSource(const std::uint64_t *tick_ptr);

    /**
     * Remove @p tick_ptr as this thread's tick source, if it is
     * still installed. A later-constructed queue on the same thread
     * may have replaced it; in that case the newer source stays.
     */
    static void clearTickSource(const std::uint64_t *tick_ptr);

    /**
     * Simulated time according to this thread's installed tick
     * source, or 0 if none is installed. Observability components
     * (obs/trace.hh) stamp records through this instead of holding a
     * queue reference, so a record made while the parallel kernel has
     * a node queue active on this thread gets that node's time.
     */
    static std::uint64_t currentTick();

    /**
     * Last-words hook: called (once) by panic() and fatal() after the
     * message is printed, before the process dies. The flight
     * recorder installs itself here to dump the recent protocol
     * events of a failing run. Thread-local, like the tick source:
     * concurrent sweep systems each dump their own recorder.
     */
    using FailureHook = void (*)(void *ctx);

    /** Install @p hook with @p ctx as this thread's failure hook. */
    static void setFailureHook(FailureHook hook, void *ctx);

    /**
     * Remove the failure hook if @p ctx is still the installed
     * context (a newer hook on the same thread stays).
     */
    static void clearFailureHook(void *ctx);

    /**
     * Run and clear the installed hook, if any. Clearing first makes
     * the call re-entrancy safe: a hook that itself panics cannot
     * recurse. Called by panic()/fatal().
     */
    static void invokeFailureHook();

  private:
    static bool allEnabled;
    static std::unordered_set<std::string> enabledTags;
    static thread_local const std::uint64_t *tickSource;
    static thread_local FailureHook failureHook;
    static thread_local void *failureCtx;
};

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf into a growing std::string; never truncates. */
void append(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cpx

#define CPX_TRACE(tag, ...)                                             \
    do {                                                                \
        if (::cpx::Logger::enabled(tag))                                \
            ::cpx::Logger::trace(tag, __VA_ARGS__);                     \
    } while (0)

#endif // CPX_SIM_LOGGING_HH
