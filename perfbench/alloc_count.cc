/**
 * @file
 * Heap-allocation counter: replaces the global operator new of this
 * binary only. Counting is off unless a traced pass turns it on, so
 * untraced passes pay one relaxed load per allocation.
 *
 * Every allocating form is replaced, so that none bypasses the count,
 * and every deleting form with it: all memory comes from std::malloc
 * or std::aligned_alloc and goes back through std::free.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
allocate(std::size_t size) noexcept
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
allocate(std::size_t size, std::align_val_t align) noexcept
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded ? rounded : a);
}

template <typename... Align>
void *
allocateOrThrow(std::size_t size, Align... align)
{
    if (void *p = allocate(size, align...))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t n) { return allocateOrThrow(n); }
void *operator new[](std::size_t n) { return allocateOrThrow(n); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, a);
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace perfbench
{

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    return allocations.load(std::memory_order_relaxed);
}

} // namespace perfbench
