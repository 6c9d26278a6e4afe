/**
 * @file
 * Seeded random-program generation for the differential ISA fuzzer
 * (DESIGN.md §10). ProgramGen emits *well-formed* CPU+FPU programs —
 * every register/immediate in range, every branch target inside the
 * program, bounded loop trip counts, a trailing halt, and CPU-side
 * FPU-register traffic structurally kept away from in-flight vector
 * registers — so a trial that faults the Machine is a model finding,
 * not generator garbage. Within that envelope the generator is biased
 * toward the paper's hard cases:
 *
 *   - vector ALU ops across all 16 lengths and all four stride-bit
 *     combinations, steered by the campaign CoverageMap toward the
 *     (op, vl) cells not yet executed;
 *   - overlapping source/destination element runs (reductions and
 *     first-order recurrences, Figures 6-8);
 *   - back-to-back dependent vectors that exercise the scoreboard;
 *   - the §2.2.3 six-operation reciprocal/division macro-sequence;
 *   - operand pools salted with NaN, ±Inf, denormals, ±0, and
 *     round-boundary values next to safely normal numbers.
 *
 * Generation is a pure function of the 64-bit seed (and the coverage
 * snapshot passed in): the RNG is a local splitmix64, not a standard-
 * library engine, so the same seed yields byte-identical programs on
 * every platform — the property the corpus determinism test pins.
 */

#ifndef MTFPU_FUZZ_PROGRAM_GEN_HH
#define MTFPU_FUZZ_PROGRAM_GEN_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "isa/cpu_instr.hh"

namespace mtfpu::fuzz
{

class CoverageMap;

/** Byte address of the generated programs' data pool. */
constexpr uint64_t kPoolBase = 0x10000;

/** 64-bit words in the data pool (all loads/stores stay inside). */
constexpr unsigned kPoolWords = 48;

/**
 * One generated test program: the instruction list plus the memory
 * image it expects (pool words that must be written before run()).
 */
struct FuzzProgram
{
    std::vector<isa::Instr> code;
    /** (byte address, raw bits) pairs, written before the run. */
    std::vector<std::pair<uint64_t, uint64_t>> memInit;

    bool operator==(const FuzzProgram &) const = default;
};

/** Deterministic splitmix64 stream (seed-stable across platforms). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ULL;
        uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, n); 0 when n == 0. */
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }

    /** Uniform value in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** True with probability pct/100. */
    bool chance(unsigned pct) { return below(100) < pct; }

  private:
    uint64_t state_;
};

/** The seeded program generator. */
class ProgramGen
{
  public:
    /**
     * Generate the program for @p seed. When @p coverage is non-null
     * the vector-op bias targets an (op, vl) cell that the map has
     * not yet counted; a null map yields unbiased generation. The
     * result depends only on (seed, covered-cell set), so a campaign
     * resumed from its journal regenerates identical programs.
     */
    FuzzProgram generate(uint64_t seed,
                         const CoverageMap *coverage = nullptr) const;
};

} // namespace mtfpu::fuzz

#endif // MTFPU_FUZZ_PROGRAM_GEN_HH
