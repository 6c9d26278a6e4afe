#include "memory/direct_mapped_cache.hh"

#include <bit>

#include "common/log.hh"

namespace mtfpu::memory
{

namespace
{

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

DirectMappedCache::DirectMappedCache(const CacheConfig &config)
    : config_(config)
{
    if (!isPowerOfTwo(config.sizeBytes) || !isPowerOfTwo(config.lineBytes))
        fatal("DirectMappedCache: size and line must be powers of two");
    if (config.lineBytes > config.sizeBytes)
        fatal("DirectMappedCache: line larger than cache");
    lines_.resize(config.sizeBytes / config.lineBytes);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config.lineBytes));
    indexMask_ = lines_.size() - 1;
    tagShift_ = lineShift_ +
                static_cast<unsigned>(std::countr_zero(lines_.size()));
}

void
DirectMappedCache::flush()
{
    for (Line &line : lines_)
        line.valid = false;
}

void
DirectMappedCache::visit(Archive &ar)
{
    uint64_t numLines = lines_.size();
    ar.u64(numLines);
    if (numLines != lines_.size()) {
        fatal(ErrCode::BadSnapshot,
              "DirectMappedCache: snapshot has " +
                  std::to_string(numLines) + " lines, cache has " +
                  std::to_string(lines_.size()));
    }
    // A count of valid lines, then (line index, tag) pairs.
    uint64_t valid = 0;
    if (ar.loading()) {
        for (Line &line : lines_)
            line = Line{};
        ar.u64(valid);
        for (uint64_t i = 0; i < valid; ++i) {
            uint64_t index = 0;
            uint64_t tag = 0;
            ar.u64(index);
            ar.u64(tag);
            if (index >= lines_.size())
                fatal(ErrCode::BadSnapshot,
                      "DirectMappedCache: snapshot line index out of range");
            lines_[index] = Line{true, tag};
        }
    } else {
        for (const Line &line : lines_) {
            if (line.valid)
                ++valid;
        }
        ar.u64(valid);
        for (uint64_t i = 0; i < lines_.size(); ++i) {
            if (lines_[i].valid) {
                ar.u64(i);
                ar.u64(lines_[i].tag);
            }
        }
    }
    stats_.visit(ar);
}

} // namespace mtfpu::memory
