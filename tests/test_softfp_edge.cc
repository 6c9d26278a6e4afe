/**
 * @file
 * Edge-focused soft-FP tests: subnormal boundaries, rounding
 * carry-outs, conversion round trips, flag semantics as a
 * parameterized table, sign symmetries, and reciprocal/division
 * convergence sweeps.
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "softfp/backend.hh"
#include "softfp/fp64.hh"
#include "softfp/recip.hh"

namespace mtfpu::softfp
{
namespace
{

uint64_t
bitsOf(double d)
{
    uint64_t v;
    std::memcpy(&v, &d, sizeof(v));
    return v;
}

double
dblOf(uint64_t v)
{
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

// ---------------------------------------------------------------------
// Subnormal boundary property sweeps
// ---------------------------------------------------------------------

TEST(SubnormalEdge, AddNearTheBottomMatchesHost)
{
    std::mt19937_64 rng(0xabcd);
    for (int i = 0; i < 100000; ++i) {
        // Exponents straddling the subnormal boundary.
        const int ea = -1080 + static_cast<int>(rng() % 80);
        const int eb = -1080 + static_cast<int>(rng() % 80);
        const double ma =
            1.0 + static_cast<double>(rng() % 4096) / 4096.0;
        const double mb =
            1.0 + static_cast<double>(rng() % 4096) / 4096.0;
        const double a = std::ldexp((rng() & 1) ? ma : -ma, ea);
        const double b = std::ldexp((rng() & 1) ? mb : -mb, eb);
        Flags flags;
        ASSERT_EQ(fpAdd(bitsOf(a), bitsOf(b), flags), bitsOf(a + b))
            << std::hexfloat << a << " + " << b;
    }
}

TEST(SubnormalEdge, MulIntoAndOutOfSubnormalsMatchesHost)
{
    std::mt19937_64 rng(0xdcba);
    for (int i = 0; i < 100000; ++i) {
        const int ea = -540 + static_cast<int>(rng() % 80);
        const int eb = -540 + static_cast<int>(rng() % 80);
        const double ma =
            1.0 + static_cast<double>(rng() % 4096) / 4096.0;
        const double mb =
            1.0 + static_cast<double>(rng() % 4096) / 4096.0;
        const double a = std::ldexp(ma, ea);
        const double b = std::ldexp(mb, eb);
        Flags flags;
        ASSERT_EQ(fpMul(bitsOf(a), bitsOf(b), flags), bitsOf(a * b))
            << std::hexfloat << a << " * " << b;
    }
}

TEST(SubnormalEdge, SmallestValues)
{
    Flags flags;
    const double dmin = 5e-324; // 0x...1
    // DBL_MIN - dmin: the largest subnormal.
    EXPECT_EQ(fpSub(bitsOf(DBL_MIN), bitsOf(dmin), flags),
              bitsOf(DBL_MIN - dmin));
    // Round half the smallest subnormal to zero.
    EXPECT_EQ(fpMul(bitsOf(dmin), bitsOf(0.5), flags), bitsOf(0.0));
    // And 1.5x the smallest rounds to even (2 ulp).
    EXPECT_EQ(fpMul(bitsOf(dmin), bitsOf(1.5), flags),
              bitsOf(dmin * 1.5));
}

TEST(RoundingEdge, CarryOutOfSignificand)
{
    Flags flags;
    // 1 + 2^-53 rounds to 1 (ties-to-even); 1 + 2^-52 is exact.
    EXPECT_EQ(fpAdd(bitsOf(1.0), bitsOf(std::ldexp(1.0, -53)), flags),
              bitsOf(1.0));
    EXPECT_EQ(fpAdd(bitsOf(1.0), bitsOf(std::ldexp(1.0, -52)), flags),
              bitsOf(1.0 + std::ldexp(1.0, -52)));
    // (2 - ulp) + ulp carries into the next binade.
    const double almost2 = std::nextafter(2.0, 0.0);
    EXPECT_EQ(fpAdd(bitsOf(almost2),
                    bitsOf(2.0 - almost2), flags),
              bitsOf(2.0));
    // Largest normal + half its ulp: ties-to-even -> stays finite?
    // Host decides; just match it.
    const double m = DBL_MAX;
    const double half_ulp = std::ldexp(1.0, 970);
    EXPECT_EQ(fpAdd(bitsOf(m), bitsOf(half_ulp), flags),
              bitsOf(m + half_ulp));
}

TEST(RoundingEdge, MaxNormalOverflowBoundary)
{
    Flags flags;
    const double just_over = std::ldexp(1.0, 971); // > half ulp of MAX
    EXPECT_EQ(fpAdd(bitsOf(DBL_MAX), bitsOf(just_over), flags),
              kPlusInf);
    EXPECT_TRUE(flags.overflow);
}

// ---------------------------------------------------------------------
// Conversion round trips
// ---------------------------------------------------------------------

TEST(ConversionEdge, TruncOfFloatIsIdentityBelow2To53)
{
    std::mt19937_64 rng(0x1212);
    for (int i = 0; i < 100000; ++i) {
        const int64_t v = static_cast<int64_t>(rng() % (1ull << 53)) -
                          (1ll << 52);
        Flags flags;
        const uint64_t d = fpFloat(static_cast<uint64_t>(v), flags);
        EXPECT_FALSE(flags.inexact);
        ASSERT_EQ(static_cast<int64_t>(fpTruncate(d, flags)), v);
    }
}

TEST(ConversionEdge, FloatOfHugeIntsRounds)
{
    Flags flags;
    // 2^53 + 1 is not representable: rounds to 2^53 (even).
    EXPECT_EQ(fpFloat((1ull << 53) + 1, flags),
              bitsOf(static_cast<double>(1ull << 53)));
    EXPECT_TRUE(flags.inexact);
    // 2^53 + 2 is representable.
    flags = Flags{};
    EXPECT_EQ(fpFloat((1ull << 53) + 2, flags),
              bitsOf(static_cast<double>((1ull << 53) + 2)));
    EXPECT_FALSE(flags.inexact);
}

TEST(ConversionEdge, TruncateBoundaries)
{
    Flags flags;
    EXPECT_EQ(static_cast<int64_t>(
                  fpTruncate(bitsOf(0.9999999999999999), flags)),
              0);
    EXPECT_EQ(static_cast<int64_t>(
                  fpTruncate(bitsOf(-0.9999999999999999), flags)),
              0);
    EXPECT_EQ(static_cast<int64_t>(fpTruncate(
                  bitsOf(9223372036854774784.0), flags)),
              9223372036854774784ll); // largest double < 2^63
}

// ---------------------------------------------------------------------
// Flag semantics table
// ---------------------------------------------------------------------

struct FlagCase
{
    const char *name;
    unsigned unit, func;
    double a, b;
    bool overflow, underflow, inexact, invalid, divByZero;
};

// Print the case by name. gtest's default dumps the object's bytes,
// which include the address held in `name`; that address moves with
// address-space randomisation on every run, and gtest_discover_tests
// copies the printed value into the CTest test name.
void
PrintTo(const FlagCase &c, std::ostream *os)
{
    *os << c.name;
}

class FlagTable : public ::testing::TestWithParam<FlagCase>
{
};

TEST_P(FlagTable, OperationSetsExactlyTheseFlags)
{
    const FlagCase &c = GetParam();
    Flags flags;
    fpuOperate(c.unit, c.func, bitsOf(c.a), bitsOf(c.b), flags);
    EXPECT_EQ(flags.overflow, c.overflow) << "overflow";
    EXPECT_EQ(flags.underflow, c.underflow) << "underflow";
    EXPECT_EQ(flags.inexact, c.inexact) << "inexact";
    EXPECT_EQ(flags.invalid, c.invalid) << "invalid";
    EXPECT_EQ(flags.divByZero, c.divByZero) << "divByZero";
}

INSTANTIATE_TEST_SUITE_P(
    Table, FlagTable,
    ::testing::Values(
        FlagCase{"exact_add", 1, 0, 1.5, 2.25, 0, 0, 0, 0, 0},
        FlagCase{"inexact_add", 1, 0, 0.1, 0.2, 0, 0, 1, 0, 0},
        FlagCase{"overflow_add", 1, 0, DBL_MAX, DBL_MAX, 1, 0, 1, 0, 0},
        FlagCase{"inf_minus_inf", 1, 1, HUGE_VAL, HUGE_VAL, 0, 0, 0, 1,
                 0},
        FlagCase{"exact_mul", 2, 0, 3.0, 4.0, 0, 0, 0, 0, 0},
        FlagCase{"underflow_mul", 2, 0, 1e-300, 1e-300, 0, 1, 1, 0, 0},
        FlagCase{"zero_times_inf", 2, 0, 0.0, HUGE_VAL, 0, 0, 0, 1, 0},
        FlagCase{"recip_of_zero", 3, 0, 0.0, 0.0, 0, 0, 0, 0, 1},
        FlagCase{"recip_of_two", 3, 0, 2.0, 0.0, 0, 0, 0, 0, 0}),
    [](const ::testing::TestParamInfo<FlagCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Sign symmetries
// ---------------------------------------------------------------------

TEST(Symmetry, NegationCommutesWithAddAndMul)
{
    std::mt19937_64 rng(0x7777);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t a = rng();
        const uint64_t b = rng();
        if (isNaN(a) || isNaN(b))
            continue;
        Flags f1, f2;
        const uint64_t s = fpAdd(a, b, f1);
        const uint64_t ns =
            fpAdd(a ^ kSignBit, b ^ kSignBit, f2);
        if (isZero(s)) {
            // -(+0) is -0: signs of exact zeros flip specially.
            EXPECT_TRUE(isZero(ns));
        } else {
            ASSERT_EQ(ns, s ^ kSignBit) << std::hexfloat << dblOf(a)
                                        << " " << dblOf(b);
        }
        const uint64_t p = fpMul(a, b, f1);
        const uint64_t np = fpMul(a ^ kSignBit, b, f2);
        if (!isNaN(p)) {
            ASSERT_EQ(np, p ^ kSignBit);
        }
    }
}

// ---------------------------------------------------------------------
// Reciprocal convergence sweeps
// ---------------------------------------------------------------------

TEST(RecipSweep, TwoIterationsReachNearUlp)
{
    std::mt19937_64 rng(0x9999);
    for (int i = 0; i < 20000; ++i) {
        const double m =
            1.0 + static_cast<double>(rng() % (1u << 20)) /
                      static_cast<double>(1u << 20);
        Flags flags;
        uint64_t r = fpRecipApprox(bitsOf(m), flags);
        for (int it = 0; it < 2; ++it) {
            const uint64_t t = fpMul(bitsOf(m), r, flags);
            r = fpIterStep(r, t, flags);
        }
        const double rel = std::fabs(dblOf(r) - 1.0 / m) * m;
        ASSERT_LE(rel, 1e-15) << std::hexfloat << m;
    }
}

TEST(RecipSweep, SubnormalInputOverflowsToInf)
{
    Flags flags;
    const uint64_t r = fpRecipApprox(bitsOf(5e-324), flags);
    EXPECT_TRUE(isInf(r));
    EXPECT_TRUE(flags.overflow);
}

TEST(RecipSweep, HugeInputUnderflows)
{
    Flags flags;
    const uint64_t r = fpRecipApprox(bitsOf(DBL_MAX), flags);
    // 1/DBL_MAX is subnormal: the seed lands at or near it.
    EXPECT_LT(std::fabs(dblOf(r)), 1e-300);
    EXPECT_TRUE(flags.underflow || classify(r) == FpClass::Subnormal);
}

TEST(DivideSweep, PowerOfTwoQuotientsExact)
{
    Flags flags;
    for (int ea = -60; ea <= 60; ea += 7) {
        for (int eb = -60; eb <= 60; eb += 11) {
            const double a = std::ldexp(1.0, ea);
            const double b = std::ldexp(1.0, eb);
            ASSERT_EQ(fpDivide(bitsOf(a), bitsOf(b), flags),
                      bitsOf(a / b))
                << ea << " " << eb;
        }
    }
}

TEST(DivideSweep, SelfDivisionWithinTwoUlpOfOne)
{
    // Newton-Raphson division without a final remainder correction is
    // not guaranteed exact even for a/a; the hardware contract is the
    // 2-ulp bound.
    std::mt19937_64 rng(0xaaaa);
    uint64_t exact = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const double a =
            std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                       static_cast<int>(rng() % 200) - 100);
        Flags flags;
        const uint64_t q = fpDivide(bitsOf(a), bitsOf(a), flags);
        const int64_t dist = static_cast<int64_t>(q) -
                             static_cast<int64_t>(bitsOf(1.0));
        // The architectural bound is 2 ulp (see FpDivide tests).
        ASSERT_LE(std::llabs(dist), 2) << std::hexfloat << a;
        exact += dist == 0;
        ++total;
    }
    // Most self-divisions are exactly 1.0.
    EXPECT_GT(exact * 2, total);
}

// ---------------------------------------------------------------------
// roundPack unit behavior (via the public contract)
// ---------------------------------------------------------------------

TEST(RoundPack, NormalizedInputRoundsRNE)
{
    Flags flags;
    // sig = 1.0 in bit-55 form with round bits 100 (exact tie): the
    // 53-bit significand is even, so the tie rounds down.
    const uint64_t sig_tie = (1ull << 55) | 0x4;
    EXPECT_EQ(roundPack(false, 1023, sig_tie, flags), bitsOf(1.0));
    // Odd significand + tie rounds up.
    const uint64_t sig_odd = (1ull << 55) | 0x8 | 0x4;
    const uint64_t up = roundPack(false, 1023, sig_odd, flags);
    EXPECT_EQ(up, bitsOf(1.0) + 2); // 1.0 + 2 ulp
}

TEST(RoundPack, OverflowAndUnderflowPaths)
{
    Flags flags;
    EXPECT_EQ(roundPack(false, 2047, 1ull << 55, flags), kPlusInf);
    EXPECT_TRUE(flags.overflow);
    flags = Flags{};
    // Deeply negative exponent underflows to zero with flags.
    EXPECT_EQ(roundPack(true, -200, (1ull << 55) | 1, flags), kSignBit);
    EXPECT_TRUE(flags.underflow);
    EXPECT_TRUE(flags.inexact);
}

// ---------------------------------------------------------------------
// TestFloat-style conformance vectors (tests/data/softfp_vectors.txt)
// ---------------------------------------------------------------------

struct Vector
{
    std::string op;
    uint64_t a = 0;
    uint64_t b = 0;
    uint64_t result = 0;
    uint8_t flags = 0;
};

std::vector<Vector>
loadVectors()
{
    std::ifstream in(MTFPU_TEST_DATA_DIR "/softfp_vectors.txt");
    EXPECT_TRUE(in.is_open()) << "missing softfp_vectors.txt";
    std::vector<Vector> vectors;
    std::string line;
    while (std::getline(in, line)) {
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        Vector v;
        std::string a, b, arrow, result, flags;
        if (!(fields >> v.op >> a >> b >> arrow >> result >> flags))
            continue;
        EXPECT_EQ(arrow, "=>") << "malformed vector line: " << line;
        v.a = std::stoull(a, nullptr, 16);
        v.b = std::stoull(b, nullptr, 16);
        v.result = std::stoull(result, nullptr, 16);
        v.flags = static_cast<uint8_t>(std::stoul(flags, nullptr, 16));
        vectors.push_back(v);
    }
    return vectors;
}

/** Map a vector op name onto the Figure-4 unit/func encoding. */
bool
opToUnitFunc(const std::string &op, unsigned &unit, unsigned &func)
{
    static const struct { const char *name; unsigned unit, func; }
    kOps[] = {
        {"add", 1, 0},    {"sub", 1, 1},  {"float", 1, 2},
        {"trunc", 1, 3},  {"mul", 2, 0},  {"intmul", 2, 1},
        {"iter", 2, 2},   {"recip", 3, 0},
    };
    for (const auto &entry : kOps) {
        if (op == entry.name) {
            unit = entry.unit;
            func = entry.func;
            return true;
        }
    }
    return false;
}

TEST(ConformanceVectors, BothBackendsMatchPinnedResults)
{
    const std::vector<Vector> vectors = loadVectors();
    ASSERT_GE(vectors.size(), 60u);
    for (const Backend backend : {Backend::Soft, Backend::HostFast}) {
        for (const Vector &v : vectors) {
            SCOPED_TRACE(std::string(enumName(backend)) + " " +
                         v.op + " " + std::to_string(v.a) + ", " +
                         std::to_string(v.b));
            Flags flags;
            uint64_t result;
            unsigned unit, func;
            if (v.op == "div") {
                // Division is the six-op macro, not a Figure-4 unit;
                // its recip/iter steps are backend-independent.
                result = fpDivide(v.a, v.b, flags);
            } else {
                ASSERT_TRUE(opToUnitFunc(v.op, unit, func))
                    << "unknown op " << v.op;
                result = fpuOperate(backend, unit, func, v.a, v.b,
                                    flags);
            }
            EXPECT_EQ(result, v.result);
            EXPECT_EQ(flags.toBits(), v.flags);
        }
    }
}

TEST(ConformanceVectors, CoverEveryFigure4Unit)
{
    // The vector file must keep exercising every non-reserved
    // unit/func pair (and the division macro) as it evolves.
    const std::vector<Vector> vectors = loadVectors();
    for (const char *op : {"add", "sub", "float", "trunc", "mul",
                           "intmul", "iter", "recip", "div"}) {
        const auto hit = std::any_of(
            vectors.begin(), vectors.end(),
            [op](const Vector &v) { return v.op == op; });
        EXPECT_TRUE(hit) << "no vectors for op " << op;
    }
}

} // anonymous namespace
} // namespace mtfpu::softfp
