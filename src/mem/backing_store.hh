/**
 * @file
 * Functional memory for the simulated shared address space.
 *
 * The simulator is program-driven: workload code computes on real
 * values. The backing store holds those values; the timing model
 * (caches, directory, network) decides *when* accesses complete.
 * Storage is sparse, allocated in pages on first touch.
 *
 * Parallel kernel (DESIGN.md §15): during slab execution every node
 * runs with a private write overlay. Reads see the committed state as
 * of the slab start plus the node's own writes (read-your-own-writes;
 * the committed image is frozen while workers run, so a shadow page —
 * a copy of the committed page with the node's writes applied — is a
 * complete, consistent view). At the slab barrier the coordinator
 * commits the dirty bytes of every overlay written in the slab, in
 * ascending node order.
 *
 * This makes functional memory bit-identical at every --sim-threads
 * value by construction: causally ordered cross-node accesses (i.e.
 * separated by a protocol message, which the slab protocol delivers
 * in a strictly later slab) see exactly the values they always did,
 * while causally *unordered* same-slab accesses — races the old
 * global-queue kernel resolved by host-side event interleaving — now
 * resolve to a fixed rule (readers see the slab-start image; on a
 * same-slab write collision the highest node id wins) that does not
 * depend on worker scheduling.
 *
 * The page map itself is guarded by a shared mutex: readers take it
 * shared, a writer takes it exclusive only to materialize a missing
 * page (overlay commits and non-engine callers); page storage
 * pointers are stable after creation.
 */

#ifndef CPX_MEM_BACKING_STORE_HH
#define CPX_MEM_BACKING_STORE_HH

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cpx
{

class BackingStore
{
  public:
    explicit BackingStore(unsigned page_bytes = 4096)
        : pageBytes(page_bytes)
    {}

    std::uint32_t
    read32(Addr a) const
    {
        std::uint32_t v = 0;
        readBytes(a, &v, sizeof(v));
        return v;
    }

    void
    write32(Addr a, std::uint32_t v)
    {
        writeBytes(a, &v, sizeof(v));
    }

    std::uint64_t
    read64(Addr a) const
    {
        std::uint64_t v = 0;
        readBytes(a, &v, sizeof(v));
        return v;
    }

    void
    write64(Addr a, std::uint64_t v)
    {
        writeBytes(a, &v, sizeof(v));
    }

    double
    readDouble(Addr a) const
    {
        std::uint64_t bits = read64(a);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void
    writeDouble(Addr a, double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        write64(a, bits);
    }

    void
    readBytes(Addr a, void *dst, std::size_t n) const
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        while (n > 0) {
            Addr page = a / pageBytes;
            std::size_t off = a % pageBytes;
            std::size_t span = std::min<std::size_t>(n, pageBytes - off);
            const std::uint8_t *storage = nullptr;
            if (tlsOverlay) {
                auto it = tlsOverlay->shadows.find(page);
                if (it != tlsOverlay->shadows.end())
                    storage = it->second.bytes.get();
            }
            if (!storage)
                storage = findPage(page);
            if (storage)
                std::memcpy(out, storage + off, span);
            else
                std::memset(out, 0, span);
            out += span;
            a += span;
            n -= span;
        }
    }

    void
    writeBytes(Addr a, const void *src, std::size_t n)
    {
        const auto *in = static_cast<const std::uint8_t *>(src);
        while (n > 0) {
            Addr page = a / pageBytes;
            std::size_t off = a % pageBytes;
            std::size_t span = std::min<std::size_t>(n, pageBytes - off);
            if (tlsOverlay) {
                ShadowPage &sp = shadowFor(page);
                std::memcpy(sp.bytes.get() + off, in, span);
                for (std::size_t b = off; b < off + span; ++b)
                    sp.dirty[b >> 6] |= std::uint64_t(1) << (b & 63);
            } else {
                std::memcpy(ensurePage(page) + off, in, span);
            }
            in += span;
            a += span;
            n -= span;
        }
    }

    // --- slab overlays (parallel kernel) -----------------------------------

    /** Create one write overlay per node; must precede enterNode(). */
    void
    beginSlabOverlays(unsigned num_nodes)
    {
        overlays.clear();
        overlays.resize(num_nodes);
        written.assign(num_nodes, 0);
    }

    /** Commit any straggler writes and drop the overlays. */
    void
    endSlabOverlays()
    {
        commitSlab();
        overlays.clear();
    }

    /**
     * Route this host thread's accesses through node @p n's overlay.
     * Called by the engine around each node's partition advance; the
     * overlay is touched only by that worker until the barrier.
     */
    void
    enterNode(unsigned n)
    {
        tlsOverlay = &overlays[n];
    }

    void
    leaveNode()
    {
        tlsOverlay = nullptr;
    }

    /**
     * Apply the dirty bytes of every overlay written since the last
     * commit to the committed image, in ascending node order (the
     * canonical same-slab collision rule), and clear those overlays
     * for the next slab. Coordinator-only, with all workers parked at
     * the barrier.
     */
    void
    commitSlab()
    {
        for (std::size_t n = 0; n < written.size(); ++n) {
            if (!written[n])
                continue;
            written[n] = 0;
            NodeOverlay &ov = overlays[n];
            for (auto &[page, sp] : ov.shadows) {
                std::uint8_t *dst = ensurePage(page);
                for (std::size_t w = 0; w < sp.dirty.size(); ++w) {
                    std::uint64_t bits = sp.dirty[w];
                    while (bits) {
                        unsigned b =
                            static_cast<unsigned>(std::countr_zero(bits));
                        bits &= bits - 1;
                        std::size_t off = (w << 6) | b;
                        dst[off] = sp.bytes[off];
                    }
                }
            }
            ov.shadows.clear();
        }
    }

    /** Number of pages materialized so far. */
    std::size_t
    pagesAllocated() const
    {
        std::shared_lock lock(mapLock);
        return pages.size();
    }

  private:
    /** Copy-on-first-write image of one page plus a dirty-byte map. */
    struct ShadowPage
    {
        std::unique_ptr<std::uint8_t[]> bytes;
        std::vector<std::uint64_t> dirty;
    };

    /** One node's slab-private write overlay (padded: no worker ever
     *  shares a cache line of another node's overlay header). */
    struct alignas(64) NodeOverlay
    {
        std::unordered_map<Addr, ShadowPage> shadows;
    };

    ShadowPage &
    shadowFor(Addr page)
    {
        ShadowPage &sp = tlsOverlay->shadows[page];
        if (!sp.bytes) {
            written[tlsOverlay - overlays.data()] = 1;
            sp.bytes = std::make_unique<std::uint8_t[]>(pageBytes);
            // The committed image cannot change mid-slab, so this
            // snapshot stays a faithful read view for the node.
            if (const std::uint8_t *src = findPage(page))
                std::memcpy(sp.bytes.get(), src, pageBytes);
            else
                std::memset(sp.bytes.get(), 0, pageBytes);
            sp.dirty.assign((pageBytes + 63) / 64, 0);
        }
        return sp;
    }

    const std::uint8_t *
    findPage(Addr page) const
    {
        std::shared_lock lock(mapLock);
        auto it = pages.find(page);
        return it == pages.end() ? nullptr : it->second.get();
    }

    std::uint8_t *
    ensurePage(Addr page)
    {
        {
            std::shared_lock lock(mapLock);
            auto it = pages.find(page);
            if (it != pages.end())
                return it->second.get();
        }
        std::unique_lock lock(mapLock);
        auto &storage = pages[page];
        if (!storage)
            storage = std::make_unique<std::uint8_t[]>(pageBytes);
        return storage.get();
    }

    unsigned pageBytes;
    //! Guards the map structure only; committed page contents change
    //! only while workers are parked (overlay commits) or outside
    //! engine runs entirely (setup, verification).
    mutable std::shared_mutex mapLock;
    mutable std::unordered_map<Addr, std::unique_ptr<std::uint8_t[]>>
        pages;

    std::vector<NodeOverlay> overlays;
    //! One byte per overlay, set by its node's first shadow page since
    //! the last commit, so a commit visits only written overlays.
    //! Bytes, not bits: workers set their own nodes' flags at once.
    std::vector<std::uint8_t> written;
    //! Overlay of the node currently executing on this host thread
    //! (nullptr: read/write the committed image directly).
    static inline thread_local NodeOverlay *tlsOverlay = nullptr;
};

} // namespace cpx

#endif // CPX_MEM_BACKING_STORE_HH
