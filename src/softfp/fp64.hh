/**
 * @file
 * Bit-level IEEE-754 double-precision operations modeling the MultiTitan
 * FPU functional units (paper §2, Figure 4).
 *
 * The FPU supports only double precision. The operation set is exactly
 * the paper's func/unit table: add, subtract, float (int->fp), truncate
 * (fp->int), multiply, integer multiply, iteration step, and reciprocal
 * approximation. Division is not a primitive; it is the six-operation
 * Newton-Raphson macro sequence described in §2.2.3 (720 ns = 6 x 3
 * cycles at 40 ns).
 *
 * add/sub/mul/float/truncate are bit-exact IEEE-754 round-to-nearest-even
 * (validated against host hardware in the test suite). The reciprocal
 * approximation unit models the paper's 16-bit linear-interpolation seed.
 */

#ifndef MTFPU_SOFTFP_FP64_HH
#define MTFPU_SOFTFP_FP64_HH

#include <cstdint>

namespace mtfpu
{
class Archive;
} // namespace mtfpu

namespace mtfpu::softfp
{

/** IEEE-754 exception flags accumulated by the FPU PSW. */
struct Flags
{
    bool overflow = false;
    bool underflow = false;
    bool inexact = false;
    bool invalid = false;
    bool divByZero = false;

    /** OR another flag set into this one. */
    void
    merge(const Flags &other)
    {
        overflow |= other.overflow;
        underflow |= other.underflow;
        inexact |= other.inexact;
        invalid |= other.invalid;
        divByZero |= other.divByZero;
    }

    bool
    any() const
    {
        return overflow || underflow || inexact || invalid || divByZero;
    }

    /** Pack into the PSW bit layout (bit 0 overflow .. bit 4 divByZero). */
    uint8_t
    toBits() const
    {
        return static_cast<uint8_t>(
            (overflow ? 1u : 0u) | (underflow ? 2u : 0u) |
            (inexact ? 4u : 0u) | (invalid ? 8u : 0u) |
            (divByZero ? 16u : 0u));
    }

    /** Inverse of toBits(). */
    static Flags
    fromBits(uint8_t bits)
    {
        Flags f;
        f.overflow = bits & 1u;
        f.underflow = bits & 2u;
        f.inexact = bits & 4u;
        f.invalid = bits & 8u;
        f.divByZero = bits & 16u;
        return f;
    }

    /** Visit as one toBits() byte. */
    void visit(Archive &ar);
};

/** Field layout constants for IEEE-754 binary64. */
constexpr int kFracBits = 52;
constexpr int kExpBits = 11;
constexpr int kExpBias = 1023;
constexpr int kExpMax = 2047;
constexpr uint64_t kFracMask = (1ULL << kFracBits) - 1;
constexpr uint64_t kHiddenBit = 1ULL << kFracBits;
constexpr uint64_t kSignBit = 1ULL << 63;
constexpr uint64_t kPlusInf = 0x7FF0000000000000ULL;
constexpr uint64_t kMinusInf = 0xFFF0000000000000ULL;
/** Canonical quiet NaN produced by invalid operations. */
constexpr uint64_t kQuietNaN = 0x7FF8000000000000ULL;

/** Floating-point value classification. */
enum class FpClass { Zero, Subnormal, Normal, Inf, NaN };

/** Classify a raw binary64 bit pattern. */
FpClass classify(uint64_t bits);

/** True for NaN patterns. */
bool isNaN(uint64_t bits);
/** True for +/-infinity. */
bool isInf(uint64_t bits);
/** True for +/-0. */
bool isZero(uint64_t bits);
/** Sign bit as bool. */
inline bool signOf(uint64_t bits) { return (bits & kSignBit) != 0; }

/** Reinterpret raw bits as a host double (same representation). */
double asDouble(uint64_t bits);
/** Reinterpret a host double as raw bits. */
uint64_t fromDouble(double value);

/**
 * Round and pack a result. @p sig must hold the significand with its
 * leading 1 at bit 55 (i.e. 53 significant bits followed by 3
 * guard/round/sticky bits); the represented value is
 * (-1)^sign * (sig / 2^55) * 2^(e - 1023). Handles overflow to
 * infinity and gradual underflow to subnormals, setting flags.
 */
uint64_t roundPack(bool sign, int32_t e, uint64_t sig, Flags &flags);

/**
 * Shift @p v right by @p n bits, OR-ing any shifted-out bits into the
 * least-significant bit of the result (sticky shift).
 */
uint64_t shiftRightSticky(uint64_t v, unsigned n);

/** Addition, round-to-nearest-even. */
uint64_t fpAdd(uint64_t a, uint64_t b, Flags &flags);
/** Subtraction, round-to-nearest-even. */
uint64_t fpSub(uint64_t a, uint64_t b, Flags &flags);
/** Multiplication, round-to-nearest-even. */
uint64_t fpMul(uint64_t a, uint64_t b, Flags &flags);
/** Integer multiply: low 64 bits of the two's-complement product. */
uint64_t fpIntMul(uint64_t a, uint64_t b);
/** "float": convert a two's-complement int64 register image to double. */
uint64_t fpFloat(uint64_t a, Flags &flags);
/** "truncate": convert double to int64, rounding toward zero. */
uint64_t fpTruncate(uint64_t a, Flags &flags);

/**
 * Reciprocal-approximation unit: a seed for 1/a accurate to at least
 * 16 bits, produced by linear interpolation in a 256-entry table
 * indexed by the top mantissa bits (paper §2.2.3).
 */
uint64_t fpRecipApprox(uint64_t a, Flags &flags);

/**
 * Iteration-step unit (Figure 4, unit 2 func 2): computes x * (2 - t),
 * the Newton-Raphson refinement step for reciprocals. @p x is the
 * current reciprocal estimate, @p t = b * x from the multiply unit.
 */
uint64_t fpIterStep(uint64_t x, uint64_t t, Flags &flags);

/**
 * Architectural division: the six-operation macro sequence
 * recip, mul, iter, mul, iter, mul. Result is within 2 ulp of the
 * correctly rounded quotient (see tests). Special operands (zero,
 * infinity, NaN) are resolved up front as the hardware sequence's
 * software wrapper would.
 */
uint64_t fpDivide(uint64_t a, uint64_t b, Flags &flags);

/**
 * Reference division: bit-exact IEEE-754 round-to-nearest-even
 * quotient computed by long division. Used as the oracle for
 * fpDivide in tests; not an architectural operation.
 */
uint64_t refDivide(uint64_t a, uint64_t b, Flags &flags);

/**
 * Dispatch an FPU ALU operation by its unit/func encoding (Figure 4).
 * Unknown (reserved) encodings raise fatal().
 *
 * @param unit Functional unit field (1=add, 2=multiply, 3=reciprocal).
 * @param func Sub-operation within the unit.
 * @param a First (Ra) operand register image.
 * @param b Second (Rb) operand register image.
 */
uint64_t fpuOperate(unsigned unit, unsigned func, uint64_t a, uint64_t b,
                    Flags &flags);

} // namespace mtfpu::softfp

#endif // MTFPU_SOFTFP_FP64_HH
