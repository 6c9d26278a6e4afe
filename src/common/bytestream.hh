/**
 * @file
 * Bounds-checked little-endian byte-stream primitives for the
 * snapshot subsystem. ByteWriter appends fixed-width integers to a
 * growable buffer; ByteReader consumes them back, throwing
 * SimError(ErrCode::BadSnapshot) on any attempt to read past the end
 * — a truncated or corrupted snapshot must surface as a structured,
 * containable error, never as UB.
 *
 * The encoding is deliberately dumb: fixed-width little-endian
 * fields, no varints, no alignment. Snapshot compactness comes from
 * sparse encodings at the component level (main memory serializes
 * only nonzero words), not from clever byte packing — dumb formats
 * stay debuggable in a hex dump.
 */

#ifndef MTFPU_COMMON_BYTESTREAM_HH
#define MTFPU_COMMON_BYTESTREAM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/sim_error.hh"

namespace mtfpu
{

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed raw bytes. */
    void
    bytes(const void *data, size_t n)
    {
        u64(n);
        const uint8_t *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked decoder over a borrowed byte span. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : p_(data), end_(data + size)
    {}

    explicit ByteReader(const std::vector<uint8_t> &buf)
        : ByteReader(buf.data(), buf.size())
    {}

    uint8_t
    u8()
    {
        need(1);
        return *p_++;
    }

    uint16_t
    u16()
    {
        const uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
    }

    uint32_t
    u32()
    {
        const uint32_t lo = u16();
        return lo | (static_cast<uint32_t>(u16()) << 16);
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        return lo | (static_cast<uint64_t>(u32()) << 32);
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    bool b() { return u8() != 0; }

    /**
     * Read a u32 element count, rejecting it unless that many
     * elements of at least @p elemBytes each fit in the bytes left —
     * so a hostile count fails here instead of driving an allocation.
     */
    uint32_t
    count(size_t elemBytes)
    {
        const uint32_t n = u32();
        need(uint64_t{n} * elemBytes);
        return n;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** Read a bytes() field; returns a copy. */
    std::vector<uint8_t>
    bytes()
    {
        const uint64_t n = u64();
        need(n);
        std::vector<uint8_t> out(p_, p_ + n);
        p_ += n;
        return out;
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_; }

  private:
    void
    need(uint64_t n) const
    {
        if (n > remaining())
            fatalTruncated(n);
    }

    /** Out of line so the hot need() check stays tiny. */
    [[noreturn]] void fatalTruncated(uint64_t wanted) const;

    const uint8_t *p_;
    const uint8_t *end_;
};

/** CRC-32 (IEEE 802.3 polynomial, reflected) of @p size bytes. */
uint32_t crc32(const uint8_t *data, size_t size);

} // namespace mtfpu

#endif // MTFPU_COMMON_BYTESTREAM_HH
