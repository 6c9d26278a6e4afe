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
 *
 * Serialized components do not call the two directly: each lists its
 * fields once, in a visit(Archive&) that saves or loads them (see
 * Archive). Only the containers around them (the snapshot file, the
 * job content blob, result-cache entries) write and read raw fields.
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
    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v) { le(v, 4); }
    void u64(uint64_t v) { le(v, 8); }

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
    /** Append the @p n low bytes of @p v, least significant first, in
     *  one insert: small enough to inline into every field visit. */
    void
    le(uint64_t v, size_t n)
    {
        uint8_t bytes[8];
        for (size_t i = 0; i < n; ++i)
            bytes[i] = static_cast<uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), bytes, bytes + n);
    }

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

    uint8_t u8() { return static_cast<uint8_t>(le(1)); }
    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }

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

    /** Consume @p n bytes as a little-endian integer, with one bounds
     *  check. */
    uint64_t
    le(size_t n)
    {
        need(n);
        uint64_t v = 0;
        for (size_t i = 0; i < n; ++i)
            v |= uint64_t{p_[i]} << (8 * i);
        p_ += n;
        return v;
    }

    /** Out of line so the hot need() check stays tiny. */
    [[noreturn]] void fatalTruncated(uint64_t wanted) const;

    const uint8_t *p_;
    const uint8_t *end_;
};

/**
 * One field list for both directions. A component's visit(Archive &)
 * hands every serialized field to the archive by reference, in stream
 * order: a saving archive writes the field, a loading one overwrites
 * it, so save and load cannot disagree on order or width. Loading
 * also checks what a hostile stream can get wrong here — counts are
 * bounded by the bytes left (ByteReader::count) and enum fields by
 * their last enumerator — while each visit() checks its own ranges
 * under loading(). A saving visit() only reads its object.
 */
class Archive
{
  public:
    explicit Archive(ByteWriter &out) : out_(&out) {}
    explicit Archive(ByteReader &in) : in_(&in) {}

    /** Append @p obj's fields to @p out. */
    template <typename T>
    static void
    save(ByteWriter &out, const T &obj)
    {
        Archive ar(out);
        const_cast<T &>(obj).visit(ar); // saving never writes to obj
    }

    /** Overwrite @p obj's fields from @p in. */
    template <typename T>
    static void
    load(ByteReader &in, T &obj)
    {
        Archive ar(in);
        obj.visit(ar);
    }

    bool loading() const { return in_ != nullptr; }

    void
    u8(uint8_t &v)
    {
        if (in_)
            v = in_->u8();
        else
            out_->u8(v);
    }

    void
    u32(uint32_t &v)
    {
        if (in_)
            v = in_->u32();
        else
            out_->u32(v);
    }

    void
    u64(uint64_t &v)
    {
        if (in_)
            v = in_->u64();
        else
            out_->u64(v);
    }

    void
    i64(int64_t &v)
    {
        if (in_)
            v = in_->i64();
        else
            out_->i64(v);
    }

    void
    b(bool &v)
    {
        if (in_)
            v = in_->b();
        else
            out_->b(v);
    }

    void
    f64(double &v)
    {
        if (in_)
            v = in_->f64();
        else
            out_->f64(v);
    }

    /** An enum stored as a u8; loading rejects values past @p last. */
    template <typename E>
    void
    enumU8(E &v, E last, const char *what)
    {
        uint8_t raw = static_cast<uint8_t>(v);
        u8(raw);
        if (in_) {
            if (raw > static_cast<uint8_t>(last))
                fatalBadEnum(what, raw);
            v = static_cast<E>(raw);
        }
    }

    /**
     * The length of @p v as a u32 count. Loading bounds the count by
     * @p elemBytes per element and replaces @p v's contents with that
     * many value-initialized elements, which the caller then visits.
     */
    template <typename T>
    void
    count(std::vector<T> &v, size_t elemBytes)
    {
        uint32_t n = static_cast<uint32_t>(v.size());
        count(n, elemBytes);
        if (in_)
            v.assign(n, T{});
    }

    /** A u32 element count; loading bounds it by @p elemBytes per
     *  element, as for a vector. */
    void
    count(uint32_t &n, size_t elemBytes)
    {
        if (in_)
            n = in_->count(elemBytes);
        else
            out_->u32(n);
    }

  private:
    [[noreturn]] static void fatalBadEnum(const char *what, unsigned raw);

    ByteWriter *out_ = nullptr;
    ByteReader *in_ = nullptr;
};

/** CRC-32 (IEEE 802.3 polynomial, reflected) of @p size bytes. */
uint32_t crc32(const uint8_t *data, size_t size);

} // namespace mtfpu

#endif // MTFPU_COMMON_BYTESTREAM_HH
