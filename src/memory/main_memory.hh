/**
 * @file
 * Flat byte-addressed main memory with 64-bit accessors. The
 * MultiTitan's data paths are 64 bits wide; all FPU loads and stores
 * move aligned 64-bit words.
 *
 * Whole-memory work is proportional to the pages a job touches, not
 * to the address space: the words live in an anonymous private
 * mapping the OS zero-fills page by page on first touch, and a bitmap
 * records every 4 KB page ever written. Invariant: every nonzero word
 * lies in a recorded page. The page walks below (clear, copyFrom,
 * saveState/restoreState, forEachNonzero, forEachDifference) rely on
 * it; no code outside this class loops over the address range.
 */

#ifndef MTFPU_MEMORY_MAIN_MEMORY_HH
#define MTFPU_MEMORY_MAIN_MEMORY_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/log.hh"

namespace mtfpu::memory
{

/** Simple flat memory; addresses are byte addresses. */
class MainMemory
{
  public:
    /** Bytes per page of the written-page record. */
    static constexpr uint64_t kPageBytes = 4096;

    /** Create a memory of @p size bytes (default 4 MB), all zero. */
    explicit MainMemory(size_t size = 4u << 20);

    /** Deep copy: the copy owns its own mapping. */
    MainMemory(const MainMemory &other);
    MainMemory(MainMemory &&other) noexcept;
    /** Copy or move assignment (copy-and-swap). */
    MainMemory &operator=(MainMemory other) noexcept;
    ~MainMemory();

    /** Memory size in bytes (data_ holds 64-bit words). */
    size_t size() const { return words_ * 8; }

    // read64/write64 are inline: they run once per simulated load or
    // store, and the bounds check folds into the word-index shift.

    /** Read an aligned 64-bit word; fatal() on misalignment/range. */
    uint64_t
    read64(uint64_t addr) const
    {
        check(addr);
        return data_[addr / 8];
    }

    /** Write an aligned 64-bit word; fatal() on misalignment/range. */
    void
    write64(uint64_t addr, uint64_t value)
    {
        check(addr);
        data_[addr / 8] = value;
        markPage(addr / 8);
    }

    /** Convenience: read a double at @p addr. */
    double readDouble(uint64_t addr) const;

    /** Convenience: write a double at @p addr. */
    void writeDouble(uint64_t addr, double value);

    /** Zero all of memory (only recorded pages can be nonzero). */
    void clear();

    /** Make this memory's contents equal @p src's; sizes must match. */
    void copyFrom(const MainMemory &src);

    /** Serialize contents sparsely (only nonzero words are stored). */
    void saveState(ByteWriter &out) const;

    /** Restore state saved by saveState(); sizes must match. */
    void restoreState(ByteReader &in);

    /** Call fn(addr, word) for every nonzero word, ascending. */
    template <typename Fn>
    void
    forEachNonzero(Fn &&fn) const
    {
        forEachPage([this](size_t i) { return pages_[i]; },
                    [&](size_t lo, size_t hi) {
                        for (size_t w = lo; w < hi; ++w) {
                            if (data_[w] != 0)
                                fn(uint64_t{w} * 8, data_[w]);
                        }
                    });
    }

    /**
     * Call fn(addr, mine, theirs) for every word where this memory
     * and @p other differ, ascending; sizes must match. Walks the
     * union of both memories' recorded pages.
     */
    template <typename Fn>
    void
    forEachDifference(const MainMemory &other, Fn &&fn) const
    {
        requireSameSize(other);
        forEachPage(
            [&](size_t i) { return pages_[i] | other.pages_[i]; },
            [&](size_t lo, size_t hi) {
                for (size_t w = lo; w < hi; ++w) {
                    if (data_[w] != other.data_[w])
                        fn(uint64_t{w} * 8, data_[w], other.data_[w]);
                }
            });
    }

  private:
    static constexpr size_t kPageWords = kPageBytes / 8;

    void
    check(uint64_t addr) const
    {
        if (addr % 8 != 0)
            fatal(ErrCode::MemAlign,
                  "MainMemory: unaligned 64-bit access at " +
                      std::to_string(addr));
        if (addr / 8 >= words_)
            fatal(ErrCode::MemRange,
                  "MainMemory: access past end of memory at " +
                      std::to_string(addr) + " (size " +
                      std::to_string(words_ * 8) + ")");
    }

    /**
     * Record the page holding word @p word as written. The bit is
     * tested before it is set: the page is almost always recorded
     * already, and skipping the store keeps a run of writes from
     * chaining through one bitmap word (measured: 2.1 -> 1.0 ns per
     * write on a 3000-word fill).
     */
    void
    markPage(uint64_t word)
    {
        const uint64_t page = word / kPageWords;
        uint64_t &bits = pages_[page / 64];
        const uint64_t bit = uint64_t{1} << (page % 64);
        if (!(bits & bit))
            bits |= bit;
    }

    /**
     * Call visit(lo, hi) with the word range of every page whose bit
     * is set in bits(i), the i-th 64-page word of a page bitmap, in
     * ascending page order. The last page may be partial.
     */
    template <typename Bits, typename Visit>
    void
    forEachPage(Bits &&bits, Visit &&visit) const
    {
        for (size_t i = 0; i < pages_.size(); ++i) {
            for (uint64_t set = bits(i); set != 0; set &= set - 1) {
                const size_t page = i * 64 + std::countr_zero(set);
                const size_t lo = page * kPageWords;
                visit(lo, std::min(lo + kPageWords, words_));
            }
        }
    }

    /** fatal(MemRange) unless @p other has this memory's size. */
    void requireSameSize(const MainMemory &other) const;

    size_t words_ = 0;
    uint64_t *data_ = nullptr;   // anonymous mapping, zero until touched
    std::vector<uint64_t> pages_; // one bit per written page
};

} // namespace mtfpu::memory

#endif // MTFPU_MEMORY_MAIN_MEMORY_HH
