/**
 * @file
 * Tests of the memory substrate: main memory and its page walks
 * (checked against full scans of the address space), the
 * direct-mapped cache timing model (64 KB / 16-byte lines / 14-cycle
 * miss), and the composed hierarchy with the instruction-buffer path.
 */

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "kernels/runner.hh"
#include "machine/lockstep.hh"
#include "memory/direct_mapped_cache.hh"
#include "memory/main_memory.hh"
#include "memory/memory_system.hh"

namespace mtfpu::memory
{
namespace
{

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem(1024);
    mem.write64(0, 0xDEADBEEFCAFEF00DULL);
    mem.write64(1016, 42);
    EXPECT_EQ(mem.read64(0), 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(mem.read64(1016), 42u);
    EXPECT_EQ(mem.read64(8), 0u);
}

TEST(MainMemory, DoubleAccessors)
{
    MainMemory mem(256);
    mem.writeDouble(16, 3.25);
    EXPECT_DOUBLE_EQ(mem.readDouble(16), 3.25);
}

TEST(MainMemory, FaultsOnMisalignedAndOutOfRange)
{
    MainMemory mem(64);
    EXPECT_THROW(mem.read64(4), FatalError);
    EXPECT_THROW(mem.write64(3, 0), FatalError);
    EXPECT_THROW(mem.read64(64), FatalError);
}

TEST(MainMemory, Clear)
{
    MainMemory mem(64);
    mem.write64(0, 7);
    mem.clear();
    EXPECT_EQ(mem.read64(0), 0u);
}

using Words = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * Seeded writes that stress the written-page record: words on both
 * sides of page boundaries, the first and last words of memory,
 * writes of zero, overwrites back to zero, and random words anywhere.
 */
void
scribble(MainMemory &mem, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const uint64_t words = mem.size() / 8;
    const uint64_t pages = mem.size() / MainMemory::kPageBytes;
    std::vector<uint64_t> written;
    auto put = [&](uint64_t addr, uint64_t value) {
        mem.write64(addr, value);
        written.push_back(addr);
    };
    for (int i = 0; i < 200; ++i)
        put(rng() % words * 8, rng() | 1);
    for (int i = 0; i < 16; ++i) {
        const uint64_t edge =
            (1 + rng() % (pages - 1)) * MainMemory::kPageBytes;
        put(edge - 8, rng() | 1);
        put(edge, rng() | 1);
    }
    put(0, rng() | 1);
    put(mem.size() - 8, rng() | 1);
    for (int i = 0; i < 20; ++i)
        mem.write64(rng() % words * 8, 0);
    for (int i = 0; i < 20; ++i)
        mem.write64(written[rng() % written.size()], 0);
}

/** Every nonzero (addr, word), found by reading the whole memory. */
Words
fullScan(const MainMemory &mem)
{
    Words out;
    for (uint64_t addr = 0; addr < mem.size(); addr += 8) {
        if (const uint64_t word = mem.read64(addr))
            out.emplace_back(addr, word);
    }
    return out;
}

/** visit()'s sparse encoding, built from a full scan. */
std::vector<uint8_t>
fullScanState(const MainMemory &mem)
{
    const Words words = fullScan(mem);
    ByteWriter out;
    out.u64(mem.size() / 8);
    out.u64(words.size());
    for (const auto &[addr, word] : words) {
        out.u64(addr / 8);
        out.u64(word);
    }
    return out.take();
}

std::vector<uint8_t>
saved(const MainMemory &mem)
{
    ByteWriter out;
    Archive::save(out, mem);
    return out.take();
}

TEST(MainMemoryPages, SaveStateMatchesFullScan)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        MainMemory mem;
        scribble(mem, seed);
        const Words scan = fullScan(mem);
        ASSERT_FALSE(scan.empty());
        EXPECT_EQ(scan.back().first, mem.size() - 8);
        EXPECT_EQ(saved(mem), fullScanState(mem)) << "seed " << seed;
    }
    // A size that is not a whole number of pages ends in a partial one.
    MainMemory odd(3 * MainMemory::kPageBytes + 24);
    odd.write64(odd.size() - 8, 5);
    odd.write64(MainMemory::kPageBytes, 6);
    EXPECT_EQ(saved(odd), fullScanState(odd));
}

TEST(MainMemoryPages, MemImageMatchesFullScan)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        kernels::Kernel k;
        k.init = [seed](MainMemory &m) { scribble(m, seed); };
        MainMemory reference;
        scribble(reference, seed);
        EXPECT_EQ(kernels::memImage(k.init, reference.size()),
                  fullScan(reference))
            << "seed " << seed;
    }
}

TEST(MainMemoryPages, RestoreLeavesNoWordFromBeforeIt)
{
    MainMemory source;
    scribble(source, 11);
    const std::vector<uint8_t> state = saved(source);

    MainMemory target;
    scribble(target, 12); // mostly other pages than source's
    ASSERT_NE(fullScan(target), fullScan(source));
    ByteReader in(state);
    Archive::load(in, target);
    EXPECT_EQ(fullScan(target), fullScan(source));
    EXPECT_EQ(saved(target), state);
}

TEST(MainMemoryPages, ClearAndCopyFromLeaveNoStaleWord)
{
    MainMemory source;
    scribble(source, 21);
    MainMemory target;
    scribble(target, 22);
    target.copyFrom(source);
    EXPECT_EQ(fullScan(target), fullScan(source));
    EXPECT_EQ(saved(target), saved(source));

    target.clear();
    EXPECT_TRUE(fullScan(target).empty());
    EXPECT_THROW(target.copyFrom(MainMemory(64)), SimError);
}

TEST(MainMemoryPages, CopiesAreDeep)
{
    MainMemory original;
    scribble(original, 31);
    const Words before = fullScan(original);

    MainMemory copy(original);
    EXPECT_EQ(fullScan(copy), before);
    copy.write64(0x2000, 0xabc);
    copy.write64(before.front().first, 0);
    EXPECT_EQ(fullScan(original), before);
    original.write64(0x3000, 0xdef);
    EXPECT_EQ(copy.read64(0x3000), 0u);

    MainMemory assigned(64);
    assigned = original;
    EXPECT_EQ(assigned.size(), original.size());
    EXPECT_EQ(fullScan(assigned), fullScan(original));
    assigned.write64(0x4000, 1);
    EXPECT_EQ(original.read64(0x4000), 0u);

    MainMemory same_size;
    scribble(same_size, 32);
    same_size = original;
    EXPECT_EQ(fullScan(same_size), fullScan(original));
}

/** Writes words into the lockstep shadow's memory only, right after
 *  the checker armed (observers run in the order they were added). */
class ShadowOnlyWriter : public exec::ExecObserver
{
  public:
    ShadowOnlyWriter(machine::LockstepChecker &checker, Words words)
        : checker_(checker), words_(std::move(words))
    {}

    void
    onCycle(uint64_t) override
    {
        for (const auto &[addr, word] : words_)
            checker_.interpreter().mem().write64(addr, word);
        words_.clear();
    }

  private:
    machine::LockstepChecker &checker_;
    Words words_;
};

TEST(MainMemoryPages, LockstepReportsShadowOnlyWordsAscending)
{
    machine::Machine m;
    m.loadProgram(assembler::assemble(R"(
            li   r1, 9
            st   r1, 256(r0)
            halt
    )"));
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);
    // Pages the machine never writes, injected out of address order.
    const uint64_t last = m.mem().size() - 8;
    ShadowOnlyWriter writer(checker,
                            {{last, 3}, {0x200000, 2}, {0x1008, 1}});
    m.addObserver(&writer);

    try {
        m.run();
        FAIL() << "shadow-only memory words went unreported";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::LockstepDivergence);
    }
    const auto &deltas = checker.report().deltas;
    ASSERT_EQ(deltas.size(), 3u);
    EXPECT_EQ(deltas[0].what, "mem[0x0000000000001008]");
    EXPECT_EQ(deltas[1].what, "mem[0x0000000000200000]");
    EXPECT_EQ(deltas[2].what, "mem[0x00000000003ffff8]");
    for (size_t i = 0; i < deltas.size(); ++i) {
        EXPECT_EQ(deltas[i].machine, 0u);
        EXPECT_EQ(deltas[i].interp, i + 1);
    }
}

TEST(Cache, ColdMissThenHit)
{
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    EXPECT_EQ(c.access(0x1000, false), 14u);
    EXPECT_EQ(c.access(0x1000, false), 0u);
    // Same 16-byte line.
    EXPECT_EQ(c.access(0x1008, false), 0u);
    // Next line misses.
    EXPECT_EQ(c.access(0x1010, false), 14u);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 64 KB direct-mapped: addresses 64 KB apart conflict.
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    EXPECT_EQ(c.access(0x0, false), 14u);
    EXPECT_EQ(c.access(0x10000, false), 14u); // evicts
    EXPECT_EQ(c.access(0x0, false), 14u);     // miss again
}

TEST(Cache, WriteAllocatePolicy)
{
    DirectMappedCache alloc(CacheConfig{1024, 16, 14, true});
    EXPECT_EQ(alloc.access(0x40, true), 14u);
    EXPECT_EQ(alloc.access(0x40, false), 0u); // allocated by the write

    DirectMappedCache noalloc(CacheConfig{1024, 16, 14, false});
    EXPECT_EQ(noalloc.access(0x40, true), 14u);
    EXPECT_EQ(noalloc.access(0x40, false), 14u); // not allocated
}

TEST(Cache, FlushInvalidates)
{
    DirectMappedCache c(CacheConfig{1024, 16, 5, true});
    c.access(0x0, false);
    EXPECT_TRUE(c.probe(0x0));
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_EQ(c.access(0x0, false), 5u);
}

TEST(Cache, StatsAndMissRatio)
{
    DirectMappedCache c(CacheConfig{1024, 16, 5, true});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(16, false);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(DirectMappedCache(CacheConfig{1000, 16, 14, true}),
                 FatalError);
    EXPECT_THROW(DirectMappedCache(CacheConfig{16, 64, 14, true}),
                 FatalError);
}

TEST(Cache, SequentialStreamMissesOncePerLine)
{
    DirectMappedCache c(CacheConfig{64 * 1024, 16, 14, true});
    unsigned misses = 0;
    for (uint64_t addr = 0; addr < 1024; addr += 8) {
        if (c.access(addr, false) != 0)
            ++misses;
    }
    // 1024 bytes / 16-byte lines = 64 lines: two 8-byte words per line.
    EXPECT_EQ(misses, 64u);
}

TEST(MemorySystem, Figure1Defaults)
{
    MemorySystem ms;
    EXPECT_EQ(ms.config().dataCache.sizeBytes, 64u * 1024);
    EXPECT_EQ(ms.config().dataCache.lineBytes, 16u);
    EXPECT_EQ(ms.config().dataCache.missPenalty, 14u);
    EXPECT_EQ(ms.config().instrBuffer.sizeBytes, 2u * 1024);
}

TEST(MemorySystem, InstrFetchTwoLevelPenalty)
{
    MemorySystem ms;
    // Cold: miss in both the buffer and the external cache.
    const unsigned cold = ms.instrFetch(0);
    EXPECT_EQ(cold, ms.config().instrBuffer.missPenalty +
                        ms.config().instrCache.missPenalty);
    EXPECT_EQ(ms.instrFetch(0), 0u); // now buffered
}

TEST(MemorySystem, InstrBufferCapacityEviction)
{
    MemorySystem ms;
    // Walk 4 KB of instructions: wraps the 2 KB buffer but stays in
    // the 64 KB external cache, so re-fetch costs only the buffer
    // refill penalty.
    for (uint64_t a = 0; a < 4096; a += 4)
        ms.instrFetch(a);
    const unsigned refill = ms.instrFetch(0);
    EXPECT_EQ(refill, ms.config().instrBuffer.missPenalty);
}

TEST(MemorySystem, IdealMemoryAblation)
{
    MemoryConfig cfg;
    cfg.modelCaches = false;
    MemorySystem ms(cfg);
    EXPECT_EQ(ms.dataAccess(0x5000, false), 0u);
    EXPECT_EQ(ms.instrFetch(0x5000), 0u);
}

TEST(MemorySystem, FlushAllRestoresColdState)
{
    MemorySystem ms;
    ms.dataAccess(0x100, false);
    EXPECT_EQ(ms.dataAccess(0x100, false), 0u);
    ms.flushAll();
    EXPECT_EQ(ms.dataAccess(0x100, false),
              ms.config().dataCache.missPenalty);
}

} // anonymous namespace
} // namespace mtfpu::memory
