#include "softfp/fp64.hh"

#include <cstring>

#include "common/bitfield.hh"
#include "common/bytestream.hh"
#include "common/log.hh"

namespace mtfpu::softfp
{

void
Flags::visit(Archive &ar)
{
    uint8_t bits = toBits();
    ar.u8(bits);
    if (ar.loading())
        *this = fromBits(bits);
}

FpClass
classify(uint64_t v)
{
    const uint64_t exp = bits(v, kFracBits, kExpBits);
    const uint64_t frac = v & kFracMask;
    if (exp == 0)
        return frac == 0 ? FpClass::Zero : FpClass::Subnormal;
    if (exp == static_cast<uint64_t>(kExpMax))
        return frac == 0 ? FpClass::Inf : FpClass::NaN;
    return FpClass::Normal;
}

bool
isNaN(uint64_t v)
{
    return classify(v) == FpClass::NaN;
}

bool
isInf(uint64_t v)
{
    return classify(v) == FpClass::Inf;
}

bool
isZero(uint64_t v)
{
    return classify(v) == FpClass::Zero;
}

double
asDouble(uint64_t v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

uint64_t
fromDouble(double d)
{
    uint64_t v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

uint64_t
shiftRightSticky(uint64_t v, unsigned n)
{
    if (n == 0)
        return v;
    if (n >= 64)
        return v != 0 ? 1 : 0;
    uint64_t out = v >> n;
    if (v & lowMask(n))
        out |= 1;
    return out;
}

uint64_t
roundPack(bool sign, int32_t e, uint64_t sig, Flags &flags)
{
    const uint64_t sbit = sign ? kSignBit : 0;

    if (e <= 0) {
        // Result is (possibly) subnormal: denormalize so that a zero
        // exponent field represents the value, then round.
        sig = shiftRightSticky(sig, static_cast<unsigned>(1 - e));
        e = 0;
    }

    const unsigned round_bits = sig & 7;
    uint64_t sig53 = sig >> 3;
    if (round_bits > 4 || (round_bits == 4 && (sig53 & 1)))
        ++sig53;
    if (round_bits != 0)
        flags.inexact = true;

    if (sig53 >> (kFracBits + 1)) {
        // Rounding carried out of the significand.
        sig53 >>= 1;
        ++e;
    }

    if (sig53 & kHiddenBit) {
        // Normal result. A subnormal that rounded up to the smallest
        // normal arrives here with e == 0 and sig53 == 2^52.
        const int32_t exp_field = e == 0 ? 1 : e;
        if (exp_field >= kExpMax) {
            flags.overflow = true;
            flags.inexact = true;
            return sbit | kPlusInf;
        }
        return sbit | (static_cast<uint64_t>(exp_field) << kFracBits) |
               (sig53 & kFracMask);
    }

    // Subnormal (or zero) result. Exact subnormal-range arithmetic can
    // arrive with e == 1 (the uniform subnormal exponent); anything
    // larger with a clear hidden bit is a caller bug.
    if (e > 1)
        panic("roundPack: unnormalized significand for normal exponent");
    if (round_bits != 0)
        flags.underflow = true;
    return sbit | sig53;
}

uint64_t
fpIntMul(uint64_t a, uint64_t b)
{
    // The low 64 bits of a two's-complement product do not depend on
    // signedness; unsigned multiplication wraps instead of overflowing.
    return a * b;
}

uint64_t
fpuOperate(unsigned unit, unsigned func, uint64_t a, uint64_t b,
           Flags &flags)
{
    switch (unit) {
      case 1:
        switch (func) {
          case 0: return fpAdd(a, b, flags);
          case 1: return fpSub(a, b, flags);
          case 2: return fpFloat(a, flags);
          case 3: return fpTruncate(a, flags);
        }
        break;
      case 2:
        switch (func) {
          case 0: return fpMul(a, b, flags);
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
