#include "softfp/backend.hh"

#include "common/bitfield.hh"
#include "common/log.hh"

namespace mtfpu::softfp
{

namespace
{

/** Biased exponent field of a binary64 pattern. */
inline uint32_t
biasedExp(uint64_t v)
{
    return static_cast<uint32_t>((v >> kFracBits) & 0x7ff);
}

/** True for normal (not zero/subnormal/Inf/NaN) patterns. */
inline bool
isNormalBits(uint64_t v)
{
    return biasedExp(v) - 1u < 0x7feu;
}

/**
 * True when the result of a guarded host operation needs the Soft
 * fallback: zero or subnormal (underflow / exact cancellation flags),
 * infinity (overflow), or the top normal binade (kept out of the fast
 * path so the TwoSum error recovery can never overflow internally).
 */
inline bool
resultNeedsFallback(uint64_t r)
{
    return biasedExp(r) - 1u >= 0x7fdu;
}

} // anonymous namespace

uint64_t
fpAddHost(uint64_t a, uint64_t b, Flags &flags)
{
    if (!isNormalBits(a) || !isNormalBits(b))
        return fpAdd(a, b, flags);

    const double da = asDouble(a);
    const double db = asDouble(b);
    const double s = da + db;
    const uint64_t r = fromDouble(s);
    if (resultNeedsFallback(r))
        return fpAdd(a, b, flags);

    // TwoSum: err is the exact rounding error of the addition (always
    // representable for round-to-nearest; no intermediate can overflow
    // with the result capped below the top binade).
    const double bv = s - da;
    const double err = (da - (s - bv)) + (db - bv);
    if (err != 0.0)
        flags.inexact = true;
    return r;
}

uint64_t
fpSubHost(uint64_t a, uint64_t b, Flags &flags)
{
    if (!isNormalBits(a) || !isNormalBits(b))
        return fpSub(a, b, flags);

    const double da = asDouble(a);
    const double db = asDouble(b);
    const double s = da - db;
    const uint64_t r = fromDouble(s);
    if (resultNeedsFallback(r))
        return fpSub(a, b, flags);

    // TwoSum of da + (-db).
    const double bv = s - da;
    const double err = (da - (s - bv)) + (-db - bv);
    if (err != 0.0)
        flags.inexact = true;
    return r;
}

uint64_t
fpMulHost(uint64_t a, uint64_t b, Flags &flags)
{
    if (!isNormalBits(a) || !isNormalBits(b))
        return fpMul(a, b, flags);

    const double p = asDouble(a) * asDouble(b);
    const uint64_t r = fromDouble(p);
    // The bottom normal binade is also excluded: an exact product just
    // below 2^-1022 rounds up into it at subnormal granularity, which
    // the full-precision integer inexactness test below cannot see.
    if (resultNeedsFallback(r) || biasedExp(r) <= 1)
        return fpMul(a, b, flags);

    // Exactness by integer product: the 53x53-bit significand product
    // keeps at most 106 bits; the multiply is exact iff every bit
    // below the 53 retained ones is zero.
    const uint64_t ma = (a & kFracMask) | kHiddenBit;
    const uint64_t mb = (b & kFracMask) | kHiddenBit;
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(ma) * mb;
    const unsigned drop = (prod >> 105) ? 53 : 52;
    if (static_cast<uint64_t>(prod) & lowMask(drop))
        flags.inexact = true;
    return r;
}

uint64_t
fpFloatHost(uint64_t a, Flags &flags)
{
    const int64_t value = static_cast<int64_t>(a);
    if (value == 0)
        return 0;

    const uint64_t mag = value < 0 ? 0 - static_cast<uint64_t>(value)
                                   : static_cast<uint64_t>(value);
    // Exact iff the magnitude spans at most 53 significant bits.
    const unsigned width =
        64u - clz64(mag) - static_cast<unsigned>(__builtin_ctzll(mag));
    if (width > 53)
        flags.inexact = true;
    return fromDouble(static_cast<double>(value));
}

uint64_t
fpTruncateHost(uint64_t a, Flags &flags)
{
    const uint32_t be = biasedExp(a);
    if (be < static_cast<uint32_t>(kExpBias)) {
        // |a| < 1: zero stays exact, everything else truncates to 0.
        if ((a & ~kSignBit) == 0)
            return 0;
        flags.inexact = true;
        return 0;
    }
    if (be > static_cast<uint32_t>(kExpBias) + 62) {
        // NaN, Inf, and the INT64_MIN/saturation boundary.
        return fpTruncate(a, flags);
    }

    const unsigned pow = be - static_cast<unsigned>(kExpBias); // 0..62
    if (pow < static_cast<unsigned>(kFracBits) &&
        (a & lowMask(static_cast<unsigned>(kFracBits) - pow))) {
        flags.inexact = true;
    }
    // |a| < 2^63, so the host conversion is defined and truncates.
    return static_cast<uint64_t>(static_cast<int64_t>(asDouble(a)));
}

uint64_t
fpuOperate(Backend backend, unsigned unit, unsigned func, uint64_t a,
           uint64_t b, Flags &flags)
{
    if (backend == Backend::Soft)
        return fpuOperate(unit, func, a, b, flags);

    switch (unit) {
      case 1:
        switch (func) {
          case 0: return fpAddHost(a, b, flags);
          case 1: return fpSubHost(a, b, flags);
          case 2: return fpFloatHost(a, flags);
          case 3: return fpTruncateHost(a, flags);
        }
        break;
      case 2:
        switch (func) {
          case 0: return fpMulHost(a, b, flags);
          case 1: return fpIntMul(a, b);
          case 2: return fpIterStep(a, b, flags);
        }
        break;
      case 3:
        if (func == 0)
            return fpRecipApprox(a, flags);
        break;
    }
    fatal("fpuOperate: reserved unit/func encoding");
}

} // namespace mtfpu::softfp
