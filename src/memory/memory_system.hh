/**
 * @file
 * The memory-system composition of Figure 1: main memory, the 64 KB
 * shared data cache, and the instruction path (2 KB on-chip
 * instruction buffer backed by the 64 KB external instruction cache).
 *
 * The caches are timing models; data always moves through MainMemory.
 * Instruction and data spaces are modeled Harvard-style: instruction
 * fetches address a separate image and only touch the instruction-path
 * caches.
 */

#ifndef MTFPU_MEMORY_MEMORY_SYSTEM_HH
#define MTFPU_MEMORY_MEMORY_SYSTEM_HH

#include "memory/direct_mapped_cache.hh"
#include "memory/main_memory.hh"

namespace mtfpu::memory
{

/** Full memory-hierarchy configuration. */
struct MemoryConfig
{
    /** 64 KB direct-mapped, 16-byte lines, 14-cycle miss (paper §2). */
    CacheConfig dataCache{64 * 1024, 16, 14, true};
    /**
     * 2 KB on-chip instruction buffer (Figure 1). Its refill penalty
     * from the external instruction cache is a calibration assumption
     * (see DESIGN.md).
     */
    CacheConfig instrBuffer{2 * 1024, 16, 4, true};
    /** 64 KB external instruction cache; misses go to memory. */
    CacheConfig instrCache{64 * 1024, 16, 14, true};
    /** Main-memory size in bytes. */
    size_t memBytes = 4u << 20;
    /** If false, every access hits (ideal-memory ablation). */
    bool modelCaches = true;

    bool operator==(const MemoryConfig &) const = default;

    void
    visit(Archive &ar)
    {
        dataCache.visit(ar);
        instrBuffer.visit(ar);
        instrCache.visit(ar);
        ar.u64(memBytes);
        ar.b(modelCaches);
    }
};

/** The composed hierarchy. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryConfig &config = MemoryConfig{});

    /** Data-side access; returns the stall penalty in cycles. */
    unsigned dataAccess(uint64_t addr, bool is_write);

    /**
     * Instruction fetch of the 32-bit word at instruction byte
     * address @p addr; returns the stall penalty in cycles.
     */
    unsigned instrFetch(uint64_t addr);

    /** Invalidate every cache level (cold start). */
    void flushAll();

    /** Reset hit/miss counters without invalidating. */
    void resetStats();

    MainMemory &mem() { return mem_; }
    const MainMemory &mem() const { return mem_; }

    /** The data-cache tag model (fault-injection site). */
    DirectMappedCache &dataCache() { return dcache_; }

    const CacheStats &dataStats() const { return dcache_.stats(); }
    const CacheStats &instrBufferStats() const { return ibuf_.stats(); }
    const CacheStats &instrCacheStats() const { return icache_.stats(); }

    const MemoryConfig &config() const { return config_; }

    /** Visit memory contents and every cache's tag state; loading
     *  requires a matching config. */
    void visit(Archive &ar);

  private:
    MemoryConfig config_;
    MainMemory mem_;
    DirectMappedCache dcache_;
    DirectMappedCache ibuf_;
    DirectMappedCache icache_;
};

} // namespace mtfpu::memory

#endif // MTFPU_MEMORY_MEMORY_SYSTEM_HH
