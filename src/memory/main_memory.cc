#include "memory/main_memory.hh"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <utility>

namespace mtfpu::memory
{

MainMemory::MainMemory(size_t size)
    : words_((size + 7) / 8),
      pages_((words_ + kPageWords * 64 - 1) / (kPageWords * 64), 0)
{
    if (words_ == 0)
        return;
    // A private anonymous mapping reads as zero and is backed by
    // physical pages only where written: construction costs no
    // zeroing, and resident memory follows the job's footprint.
    void *p = mmap(nullptr, words_ * 8, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint64_t *>(p);
}

MainMemory::MainMemory(const MainMemory &other)
    : MainMemory(other.size())
{
    copyFrom(other);
}

MainMemory::MainMemory(MainMemory &&other) noexcept
    : words_(std::exchange(other.words_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      pages_(std::exchange(other.pages_, {}))
{
}

MainMemory &
MainMemory::operator=(MainMemory other) noexcept
{
    std::swap(words_, other.words_);
    std::swap(data_, other.data_);
    std::swap(pages_, other.pages_);
    return *this;
}

MainMemory::~MainMemory()
{
    if (data_)
        munmap(data_, words_ * 8);
}

double
MainMemory::readDouble(uint64_t addr) const
{
    const uint64_t v = read64(addr);
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

void
MainMemory::writeDouble(uint64_t addr, double value)
{
    uint64_t v;
    std::memcpy(&v, &value, sizeof(v));
    write64(addr, v);
}

void
MainMemory::requireSameSize(const MainMemory &other) const
{
    if (other.words_ != words_)
        fatal(ErrCode::MemRange,
              "MainMemory: sizes differ (" + std::to_string(words_ * 8) +
                  " vs " + std::to_string(other.words_ * 8) + " bytes)");
}

void
MainMemory::clear()
{
    forEachPage([this](size_t i) { return pages_[i]; },
                [this](size_t lo, size_t hi) {
                    std::fill(data_ + lo, data_ + hi, 0);
                });
    std::fill(pages_.begin(), pages_.end(), 0);
}

void
MainMemory::copyFrom(const MainMemory &src)
{
    requireSameSize(src);
    if (&src == this)
        return;
    // Zero the pages only this memory wrote, then copy src's pages;
    // afterwards src's record covers every nonzero word here too.
    forEachPage([&](size_t i) { return pages_[i] & ~src.pages_[i]; },
                [this](size_t lo, size_t hi) {
                    std::fill(data_ + lo, data_ + hi, 0);
                });
    forEachPage([&](size_t i) { return src.pages_[i]; },
                [&](size_t lo, size_t hi) {
                    std::copy(src.data_ + lo, src.data_ + hi, data_ + lo);
                });
    pages_ = src.pages_;
}

void
MainMemory::saveState(ByteWriter &out) const
{
    out.u64(words_);
    uint64_t nonzero = 0;
    forEachNonzero([&](uint64_t, uint64_t) { ++nonzero; });
    out.u64(nonzero);
    forEachNonzero([&](uint64_t addr, uint64_t word) {
        out.u64(addr / 8);
        out.u64(word);
    });
}

void
MainMemory::restoreState(ByteReader &in)
{
    const uint64_t words = in.u64();
    if (words != words_) {
        fatal(ErrCode::BadSnapshot,
              "MainMemory: snapshot holds " + std::to_string(words * 8) +
                  " bytes, machine has " + std::to_string(words_ * 8));
    }
    clear();
    const uint64_t nonzero = in.u64();
    for (uint64_t i = 0; i < nonzero; ++i) {
        const uint64_t index = in.u64();
        const uint64_t value = in.u64();
        if (index >= words_)
            fatal(ErrCode::BadSnapshot,
                  "MainMemory: snapshot word index out of range");
        data_[index] = value;
        markPage(index);
    }
}

} // namespace mtfpu::memory
