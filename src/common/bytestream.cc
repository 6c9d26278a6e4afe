#include "common/bytestream.hh"

#include <array>

namespace mtfpu
{

void
ByteReader::fatalTruncated(uint64_t wanted) const
{
    throw SimError(ErrCode::BadSnapshot,
                   "ByteReader: truncated stream (wanted " +
                       std::to_string(wanted) + " bytes, " +
                       std::to_string(remaining()) + " left)");
}

void
Archive::fatalBadEnum(const char *what, unsigned raw)
{
    throw SimError(ErrCode::BadSnapshot,
                   std::string(what) + ": out-of-range value " +
                       std::to_string(raw));
}

namespace
{

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    return table;
}

} // anonymous namespace

uint32_t
crc32(const uint8_t *data, size_t size)
{
    static const std::array<uint32_t, 256> table = makeCrcTable();
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace mtfpu
