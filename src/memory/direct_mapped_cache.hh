/**
 * @file
 * Direct-mapped cache timing model. The MultiTitan has a 64 KB
 * direct-mapped data cache with 16-byte lines and a 14-cycle miss
 * penalty, shared by the CPU and FPU (paper §2, Figure 1), and a 2 KB
 * on-chip instruction buffer backed by a 64 KB external instruction
 * cache. This is a timing/tag model only — data always comes from
 * MainMemory (the caches are never incoherent in a uniprocessor).
 */

#ifndef MTFPU_MEMORY_DIRECT_MAPPED_CACHE_HH
#define MTFPU_MEMORY_DIRECT_MAPPED_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/bytestream.hh"

namespace mtfpu::memory
{

/** Per-cache access statistics. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;

    bool operator==(const CacheStats &) const = default;

    void
    visit(Archive &ar)
    {
        ar.u64(hits);
        ar.u64(misses);
    }

    uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0, 1]; 0 when there were no accesses. */
    double
    missRatio() const
    {
        return accesses() == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses());
    }
};

/** Configuration for one cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;
    uint64_t lineBytes = 16;
    unsigned missPenalty = 14;
    /** Allocate lines on write misses (write-back style). */
    bool writeAllocate = true;

    bool operator==(const CacheConfig &) const = default;

    void
    visit(Archive &ar)
    {
        ar.u64(sizeBytes);
        ar.u64(lineBytes);
        ar.u32(missPenalty);
        ar.b(writeAllocate);
    }
};

/**
 * A direct-mapped tag array. access() returns the stall penalty in
 * cycles (0 on a hit).
 */
class DirectMappedCache
{
  public:
    explicit DirectMappedCache(const CacheConfig &config);

    /**
     * Perform one access. Inline, with the power-of-two line/size
     * geometry precomputed into shifts at construction — this runs
     * once per instruction fetch and once per data reference, and a
     * hardware division per lookup dominated the simulator profile.
     *
     * @param addr Byte address.
     * @param is_write True for stores.
     * @return Stall penalty in cycles (0 on a hit).
     */
    unsigned
    access(uint64_t addr, bool is_write)
    {
        Line &line = lines_[lineIndex(addr)];
        const uint64_t tag = tagOf(addr);

        if (line.valid && line.tag == tag) {
            ++stats_.hits;
            return 0;
        }

        ++stats_.misses;
        if (!is_write || config_.writeAllocate) {
            line.valid = true;
            line.tag = tag;
        }
        return config_.missPenalty;
    }

    /** True if @p addr would hit right now (no state change). */
    bool
    probe(uint64_t addr) const
    {
        const Line &line = lines_[lineIndex(addr)];
        return line.valid && line.tag == tagOf(addr);
    }

    /** Invalidate all lines (cold-start). */
    void flush();

    /** Number of lines in the tag array. */
    uint64_t numLines() const { return lines_.size(); }

    /**
     * Fault-injection hook: XOR @p tag_xor into a line's stored tag
     * and optionally toggle its valid bit. The cache is a timing/tag
     * model, so a corrupted line perturbs hit/miss behavior (and thus
     * cycle counts) but can never corrupt data — the fault-campaign
     * harness relies on that distinction when classifying outcomes.
     * No-op on the access fast path: only an injector calls this.
     */
    void
    corruptLine(uint64_t index, uint64_t tag_xor, bool flip_valid)
    {
        Line &line = lines_[index % lines_.size()];
        line.tag ^= tag_xor;
        if (flip_valid)
            line.valid = !line.valid;
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }
    const CacheConfig &config() const { return config_; }

    /** Visit the valid lines (sparsely) and the statistics; loading
     *  requires a matching geometry. */
    void visit(Archive &ar);

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
    };

    uint64_t
    lineIndex(uint64_t addr) const
    {
        return (addr >> lineShift_) & indexMask_;
    }

    uint64_t tagOf(uint64_t addr) const { return addr >> tagShift_; }

    CacheConfig config_;
    std::vector<Line> lines_;
    CacheStats stats_;
    // Precomputed geometry (sizes are validated powers of two).
    unsigned lineShift_ = 0; // log2(lineBytes)
    unsigned tagShift_ = 0;  // log2(lineBytes * numLines)
    uint64_t indexMask_ = 0; // numLines - 1
};

} // namespace mtfpu::memory

#endif // MTFPU_MEMORY_DIRECT_MAPPED_CACHE_HH
