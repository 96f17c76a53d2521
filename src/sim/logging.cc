#include "sim/logging.hh"

#include <cstdlib>

namespace cpx
{

bool Logger::allEnabled = false;
std::unordered_set<std::string> Logger::enabledTags;
thread_local const std::uint64_t *Logger::tickSource = nullptr;
thread_local Logger::FailureHook Logger::failureHook = nullptr;
thread_local void *Logger::failureCtx = nullptr;

void
Logger::enable(const std::string &tag)
{
    enabledTags.insert(tag);
}

void
Logger::enableAll()
{
    allEnabled = true;
}

void
Logger::disableAll()
{
    allEnabled = false;
    enabledTags.clear();
}

bool
Logger::enabled(const std::string &tag)
{
    return allEnabled || enabledTags.count(tag) != 0;
}

void
Logger::setTickSource(const std::uint64_t *tick_ptr)
{
    tickSource = tick_ptr;
}

void
Logger::clearTickSource(const std::uint64_t *tick_ptr)
{
    if (tickSource == tick_ptr)
        tickSource = nullptr;
}

std::uint64_t
Logger::currentTick()
{
    return tickSource ? *tickSource : 0;
}

void
Logger::setFailureHook(FailureHook hook, void *ctx)
{
    failureHook = hook;
    failureCtx = ctx;
}

void
Logger::clearFailureHook(void *ctx)
{
    if (failureCtx == ctx) {
        failureHook = nullptr;
        failureCtx = nullptr;
    }
}

void
Logger::invokeFailureHook()
{
    FailureHook hook = failureHook;
    void *ctx = failureCtx;
    failureHook = nullptr;
    failureCtx = nullptr;
    if (hook)
        hook(ctx);
}

void
Logger::trace(const char *tag, const char *fmt, ...)
{
    std::uint64_t now = tickSource ? *tickSource : 0;
    std::fprintf(stderr, "%10llu: %-6s: ",
                 static_cast<unsigned long long>(now), tag);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
}

namespace
{

void
vreport(const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    Logger::invokeFailureHook();
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    Logger::invokeFailureHook();
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
append(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed > 0) {
        std::size_t old = out.size();
        out.resize(old + static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(&out[old], static_cast<std::size_t>(needed) + 1,
                       fmt, args);
        out.resize(old + static_cast<std::size_t>(needed));
    }
    va_end(args);
}

} // namespace cpx
