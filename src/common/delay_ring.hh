/**
 * @file
 * A fixed-delay pipeline held as a ring of due slots. Every item
 * enters with the same delay and at most one enters per cycle, so at
 * most one comes due per cycle: a ring of `delay` slots holds them
 * all, the item due in k cycles sitting k slots past the cursor.
 * advance() moves the cursor one slot and hands back the item it
 * lands on, if any; push() fills the slot the cursor rests on, which
 * that cycle's advance() emptied. An empty ring leaves its cursor
 * where it is (with nothing stored, the position means nothing), so
 * an idle cycle costs one compare.
 *
 * The FPU's functional units, its load path and the CPU's delayed
 * writes are such pipelines (paper §2.3.1: one latency for every
 * unit, one element issue per cycle). visit() serializes a ring as
 * the oldest-first list of (cycles left, item) those components have
 * always saved, so the snapshot format does not depend on the ring.
 */

#ifndef MTFPU_COMMON_DELAY_RING_HH
#define MTFPU_COMMON_DELAY_RING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/log.hh"

namespace mtfpu
{

/** Items of type T that each come due a fixed number of cycles after
 *  they enter. */
template <typename T>
class DelayRing
{
  public:
    /** A ring whose items come due @p delay advances after push(). */
    explicit DelayRing(unsigned delay) : slots_(delay), delay_(delay) {}

    /** Cycles from push() to the advance() that returns the item. */
    unsigned delay() const { return delay_; }

    /** True while any item is in flight. */
    bool busy() const { return size_ != 0; }

    /** Enter @p item this cycle, after this cycle's advance(). */
    void
    push(const T &item)
    {
        Slot &slot = slots_[head_];
        if (slot.full)
            panic("DelayRing: two items entered in one cycle");
        slot.item = item;
        slot.full = true;
        ++size_;
    }

    /** Advance one cycle. Returns the item that came due, or nullptr;
     *  the item stays readable until the next push(). */
    const T *
    advance()
    {
        if (size_ == 0)
            return nullptr;
        if (++head_ == delay_)
            head_ = 0;
        Slot &slot = slots_[head_];
        if (!slot.full)
            return nullptr;
        slot.full = false;
        --size_;
        return &slot.item;
    }

    /** Drop every item. */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot.full = false;
        head_ = 0;
        size_ = 0;
    }

    /** Call fn(item, left) for every item, soonest due first, where
     *  @p left (1..delay()) counts the advances until it is due. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned left = 1; left <= delay_; ++left) {
            const Slot &slot = slots_[(head_ + left) % delay_];
            if (slot.full)
                fn(slot.item, left);
        }
    }

    /**
     * Visit the ring as a u32 count, then per item, soonest due
     * first, a u32 of cycles left followed by whatever
     * fields(item, left) visits. Loading bounds the count by
     * @p itemBytes per item and rejects two items due in one cycle;
     * @p fields must reject a cycles-left outside 1..delay().
     * @p what names the items in that message ("Cpu: two writes").
     */
    template <typename Fields>
    void
    visit(Archive &ar, size_t itemBytes, const char *what, Fields &&fields)
    {
        uint32_t n = size_;
        ar.count(n, itemBytes);
        if (!ar.loading()) {
            for (uint32_t left = 1; left <= delay_; ++left) {
                Slot &slot = slots_[(head_ + left) % delay_];
                if (slot.full) {
                    ar.u32(left);
                    fields(slot.item, left);
                }
            }
            return;
        }
        clear();
        for (uint32_t i = 0; i < n; ++i) {
            T item{};
            uint32_t left = 0;
            ar.u32(left);
            fields(item, left);
            Slot &slot = slots_[left % delay_];
            if (slot.full)
                fatal(ErrCode::BadSnapshot,
                      std::string(what) + " due in the same cycle, " +
                          std::to_string(left) + " ahead");
            slot.item = item;
            slot.full = true;
            ++size_;
        }
    }

  private:
    struct Slot
    {
        T item{};
        bool full = false;
    };

    std::vector<Slot> slots_;
    unsigned delay_;
    unsigned head_ = 0; // the current cycle's slot
    unsigned size_ = 0; // items in flight
};

} // namespace mtfpu

#endif // MTFPU_COMMON_DELAY_RING_HH
