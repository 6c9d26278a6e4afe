#include "fuzz/program_gen.hh"

#include "fuzz/coverage.hh"
#include "softfp/fp64.hh"

namespace mtfpu::fuzz
{

using isa::AluFunc;
using isa::BranchCond;
using isa::FpOp;
using isa::Instr;

namespace
{

/**
 * FPU register zoning. Vector element runs live in [0, kVecZone);
 * f40..f45 hold pool constants loaded once in the prologue (vectors
 * may read them as unstrided sources, nothing ever rewrites them);
 * f46..f51 are the body's ldf/stf/mvfc scratch registers, which no
 * vector ever references — so CPU-side FPU traffic can only race the
 * single in-flight vector through the explicitly tracked hazard
 * window below, never by register reuse.
 */
constexpr unsigned kVecZone = 40;
constexpr unsigned kConstBase = 40;
constexpr unsigned kConstRegs = 6;
constexpr unsigned kScratchBase = 46;
constexpr unsigned kScratchRegs = 6;

/** Integer register roles. r1 = pool base, never rewritten. */
constexpr unsigned kBaseReg = 1;
constexpr unsigned kCounterLo = 2, kCounterHi = 7;
constexpr unsigned kScratchLo = 8, kScratchHi = 15;
constexpr unsigned kLinkReg = 20;

/**
 * Directed operand pool: the special values that exercise rounding
 * boundaries, NaN propagation, squash-on-overflow, and the recip
 * unit's denormal/zero/inf cases.
 */
constexpr uint64_t kSpecials[] = {
    0x0000000000000000ULL, // +0
    0x8000000000000000ULL, // -0
    0x3ff0000000000000ULL, // 1.0
    0xbff0000000000000ULL, // -1.0
    0x3ff0000000000001ULL, // 1.0 + 1 ulp
    0x3fefffffffffffffULL, // largest double < 1.0
    0x0000000000000001ULL, // smallest denormal
    0x000fffffffffffffULL, // largest denormal
    0x0010000000000000ULL, // smallest normal
    0x7fefffffffffffffULL, // largest normal
    0x7ff0000000000000ULL, // +Inf
    0xfff0000000000000ULL, // -Inf
    0x7ff8000000000000ULL, // quiet NaN
    0x7ff0000000000001ULL, // signaling-NaN pattern
    0x4340000000000000ULL, // 2^53 (integer-boundary conversions)
    0xc340000000000000ULL, // -2^53
    0x0000000000000005ULL, // small int image (float/intmul inputs)
    0xfffffffffffffffbULL, // -5 int image
};

/** A "safe" operand: normal, exponent within ±32 binades of 1.0. */
uint64_t
safeNormal(Rng &rng)
{
    const uint64_t sign = rng.chance(50) ? softfp::kSignBit : 0;
    const uint64_t exp =
        static_cast<uint64_t>(softfp::kExpBias - 32 + rng.below(65));
    const uint64_t frac = rng.next() & softfp::kFracMask;
    return sign | (exp << softfp::kFracBits) | frac;
}

uint64_t
poolValue(Rng &rng)
{
    if (rng.chance(35))
        return kSpecials[rng.below(std::size(kSpecials))];
    return safeNormal(rng);
}

/** Generation state threaded through the block emitters. */
struct GenState
{
    Rng rng;
    std::vector<Instr> code;

    // Hazard window for the single in-flight vector: the last FpAlu's
    // register ranges are off limits to ldf/stf/mvfc until enough
    // instructions (≥ one cycle each) have passed for every element
    // to have issued. Only one vector can occupy the ALU IR, so only
    // the most recent one needs tracking.
    unsigned hazardBase[3] = {0, 0, 0};
    unsigned hazardLen[3] = {0, 0, 0};
    size_t hazardUntil = 0; // code index at which the window closes

    explicit GenState(uint64_t seed) : rng(seed) {}

    void
    emit(const Instr &in)
    {
        code.push_back(in);
    }

    void
    noteVector(const isa::FpuAluInstr &fp)
    {
        const unsigned vl = fp.length();
        hazardBase[0] = fp.rr;
        hazardLen[0] = vl;
        hazardBase[1] = fp.ra;
        hazardLen[1] = fp.sra ? vl : 1;
        hazardBase[2] = fp.rb;
        hazardLen[2] = fp.srb ? vl : 1;
        // vl element-issue cycles plus slack for scoreboard waits on
        // the (already fully issued) previous vector and load data.
        hazardUntil = code.size() + vl + 12;
    }

    bool
    fpRegSafe(unsigned reg) const
    {
        if (code.size() >= hazardUntil)
            return true;
        for (int i = 0; i < 3; ++i) {
            if (reg >= hazardBase[i] && reg < hazardBase[i] + hazardLen[i])
                return false;
        }
        return true;
    }

    /** A scratch FPU register outside the hazard window. */
    unsigned
    pickScratchFp()
    {
        for (int tries = 0; tries < 8; ++tries) {
            const unsigned reg =
                kScratchBase + static_cast<unsigned>(
                                   rng.below(kScratchRegs));
            if (fpRegSafe(reg))
                return reg;
        }
        return kScratchBase; // scratch zone is never a vector operand
    }

    unsigned
    pickIntScratch()
    {
        return kScratchLo +
               static_cast<unsigned>(rng.below(kScratchHi - kScratchLo + 1));
    }

    int
    pickPoolOffset()
    {
        return static_cast<int>(rng.below(kPoolWords)) * 8;
    }
};

FpOp
randomOp(Rng &rng)
{
    return static_cast<FpOp>(rng.below(kNumFpOps));
}

/**
 * Emit one vector ALU instruction. Result runs live in the vector
 * zone; sources come from the vector zone (often overlapping the
 * result run — reductions/recurrences) or the prologue constants.
 */
void
emitVector(GenState &st, FpOp op, unsigned vl, bool sra, bool srb)
{
    Rng &rng = st.rng;
    const unsigned rr =
        static_cast<unsigned>(rng.below(kVecZone - vl + 1));
    unsigned ra, rb;

    auto pickSource = [&](bool strided) -> unsigned {
        if (strided)
            return static_cast<unsigned>(rng.below(kVecZone - vl + 1));
        if (rng.chance(30))
            return kConstBase + static_cast<unsigned>(rng.below(kConstRegs));
        return static_cast<unsigned>(rng.below(kVecZone));
    };

    ra = pickSource(sra);
    rb = pickSource(srb);

    // Bias toward overlapping source/result runs: a recurrence reads
    // the element the previous iteration just wrote (ra = rr - 1,
    // Figure 8), a reduction accumulates into its own source run.
    if (rng.chance(35)) {
        if (sra && rr >= 1 && rng.chance(50))
            ra = rr - 1;
        else if (sra)
            ra = rr;
        else if (srb && rr >= 1)
            rb = rr - 1;
    }

    const Instr in = Instr::fpAlu(op, rr, ra, rb, vl, sra, srb);
    st.emit(in);
    st.noteVector(in.fp);
}

/** The §2.2.3 six-operation reciprocal/division macro-sequence. */
void
emitDivisionMacro(GenState &st)
{
    Rng &rng = st.rng;
    // b (divisor) and a (dividend) from the vector zone; x/t scratch
    // inside the vector zone, clear of a and b.
    const unsigned base =
        static_cast<unsigned>(rng.below(kVecZone - 6 + 1));
    const unsigned a = base, b = base + 1, x = base + 2, t = base + 3,
                   q = base + 4;
    st.emit(Instr::fpAlu(FpOp::Recip, x, b, b));
    st.emit(Instr::fpAlu(FpOp::Mul, t, x, b));
    st.emit(Instr::fpAlu(FpOp::IterStep, x, x, t));
    st.emit(Instr::fpAlu(FpOp::Mul, t, x, b));
    st.emit(Instr::fpAlu(FpOp::IterStep, x, x, t));
    const Instr last = Instr::fpAlu(FpOp::Mul, q, a, x);
    st.emit(last);
    st.noteVector(last.fp);
}

/** Back-to-back dependent vectors (scoreboard chaining, Figure 7). */
void
emitChain(GenState &st)
{
    Rng &rng = st.rng;
    const unsigned vl = 2 + static_cast<unsigned>(rng.below(7)); // 2..8
    const unsigned depth = 2 + static_cast<unsigned>(rng.below(2));
    unsigned src = static_cast<unsigned>(rng.below(12));
    for (unsigned d = 0; d < depth; ++d) {
        const unsigned dst = 12 + static_cast<unsigned>(rng.below(
                                      kVecZone - 12 - vl + 1));
        const FpOp op = rng.chance(50) ? FpOp::Add : FpOp::Mul;
        const Instr in = Instr::fpAlu(op, dst, src, dst, vl, true, true);
        st.emit(in);
        st.noteVector(in.fp);
        src = dst;
    }
}

/** ldf/stf/mvfc traffic against the scratch zone (and pool). */
void
emitFpMemOp(GenState &st)
{
    Rng &rng = st.rng;
    const unsigned fr = st.pickScratchFp();
    switch (rng.below(3)) {
      case 0:
        st.emit(Instr::ldf(fr, kBaseReg, st.pickPoolOffset()));
        break;
      case 1:
        st.emit(Instr::stf(fr, kBaseReg, st.pickPoolOffset()));
        break;
      default:
        st.emit(Instr::mvfc(st.pickIntScratch(), fr));
        break;
    }
}

/** Integer ALU / load / store filler. */
void
emitIntOp(GenState &st)
{
    Rng &rng = st.rng;
    const unsigned rd = st.pickIntScratch();
    switch (rng.below(5)) {
      case 0:
        st.emit(Instr::alu(static_cast<AluFunc>(
                               rng.below(11)), // Add..Mul inclusive
                           rd, st.pickIntScratch(), st.pickIntScratch()));
        break;
      case 1:
        st.emit(Instr::aluImm(static_cast<AluFunc>(rng.below(11)), rd,
                              st.pickIntScratch(),
                              static_cast<int>(rng.below(256)) - 128));
        break;
      case 2:
        st.emit(Instr::ld(rd, kBaseReg, st.pickPoolOffset()));
        break;
      case 3:
        st.emit(Instr::st(st.pickIntScratch(), kBaseReg,
                          st.pickPoolOffset()));
        break;
      default:
        st.emit(Instr::lui(rd, static_cast<int>(rng.below(1 << 16))));
        break;
    }
}

/**
 * A forward conditional branch (or jump) over a short run of filler:
 * both paths are valid code, the delay slot never holds a control
 * transfer.
 */
void
emitForwardBranch(GenState &st)
{
    Rng &rng = st.rng;
    const unsigned skip = 1 + static_cast<unsigned>(rng.below(3));
    const int disp = static_cast<int>(skip) + 2;
    if (rng.chance(25)) {
        if (rng.chance(50))
            st.emit(Instr::jump(disp));
        else
            st.emit(Instr::jal(kLinkReg, disp));
    } else {
        st.emit(Instr::branch(static_cast<BranchCond>(rng.below(6)),
                              st.pickIntScratch(), st.pickIntScratch(),
                              disp));
    }
    st.emit(Instr::nop()); // delay slot
    for (unsigned i = 0; i < skip; ++i)
        emitIntOp(st);
}

/**
 * A bounded counted loop. Bodies with a vector keep their ldf/stf
 * traffic in the scratch zone (structurally disjoint from vector
 * operands), so iteration N's CPU ops cannot race iteration N-1's
 * still-issuing vector.
 */
void
emitLoop(GenState &st)
{
    Rng &rng = st.rng;
    const unsigned counter =
        kCounterLo + static_cast<unsigned>(rng.below(kCounterHi -
                                                     kCounterLo + 1));
    const unsigned trips = 2 + static_cast<unsigned>(rng.below(7));
    st.emit(Instr::aluImm(AluFunc::Add, counter, 0,
                          static_cast<int>(trips)));
    const size_t top = st.code.size();
    bool bodyVector = false;
    const unsigned bodyOps = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned i = 0; i < bodyOps; ++i) {
        switch (rng.below(3)) {
          case 0:
            emitIntOp(st);
            break;
          case 1:
            emitFpMemOp(st);
            break;
          default:
            emitVector(st, randomOp(rng),
                       1 + static_cast<unsigned>(rng.below(8)),
                       rng.chance(60), rng.chance(60));
            bodyVector = true;
            break;
        }
    }
    st.emit(Instr::aluImm(AluFunc::Sub, counter, counter, 1));
    const int disp =
        static_cast<int>(top) - static_cast<int>(st.code.size());
    st.emit(Instr::branch(BranchCond::Ne, counter, 0, disp));
    st.emit(Instr::nop()); // delay slot
    // The body's vector re-executes on the final trip just before the
    // loop exits, so its hazard window re-opens at the loop's end —
    // the static emit-distance check would otherwise credit the whole
    // loop body as elapsed time.
    if (bodyVector)
        st.hazardUntil = st.code.size() + isa::kMaxVectorLength + 12;
}

/**
 * A counted delay loop long enough for any in-flight vector to finish
 * issuing (the IR holds at most one vector of ≤16 elements; each trip
 * is ≥3 cycles), after which stf/mvfc may touch vector-zone results.
 */
void
emitDrain(GenState &st)
{
    const unsigned counter = kCounterHi; // reserved by convention
    st.emit(Instr::aluImm(AluFunc::Add, counter, 0, 24));
    const size_t top = st.code.size();
    st.emit(Instr::aluImm(AluFunc::Sub, counter, counter, 1));
    st.emit(Instr::branch(BranchCond::Ne, counter, 0,
                          static_cast<int>(top) -
                              static_cast<int>(st.code.size())));
    st.emit(Instr::nop());
    st.hazardUntil = 0; // everything has issued by now
}

} // anonymous namespace

FuzzProgram
ProgramGen::generate(uint64_t seed, const CoverageMap *coverage) const
{
    FuzzProgram prog;
    GenState st(seed);
    Rng &rng = st.rng;

    // Data pool: every program carries its own operand image.
    const unsigned poolInit =
        16 + static_cast<unsigned>(rng.below(kPoolWords - 16 + 1));
    for (unsigned w = 0; w < poolInit; ++w)
        prog.memInit.emplace_back(kPoolBase + 8ULL * w, poolValue(rng));

    // Prologue: pool base, constant registers, a warm vector zone.
    st.emit(Instr::lui(kBaseReg, 8)); // 8 << 13 = 0x10000 = kPoolBase
    for (unsigned i = 0; i < kConstRegs; ++i)
        st.emit(Instr::ldf(kConstBase + i, kBaseReg,
                           st.pickPoolOffset()));
    const unsigned warm = 4 + static_cast<unsigned>(rng.below(9));
    for (unsigned i = 0; i < warm; ++i)
        st.emit(Instr::ldf(static_cast<unsigned>(rng.below(kVecZone)),
                           kBaseReg, st.pickPoolOffset()));
    for (unsigned r = kScratchLo; r <= kScratchLo + 3; ++r)
        st.emit(Instr::ld(r, kBaseReg, st.pickPoolOffset()));

    // Coverage-directed vector: aim the first vector op of the body
    // at an uncovered (op, vl) cell, sweeping stride combinations.
    if (coverage) {
        const std::vector<unsigned> open = coverage->uncoveredOpVl();
        if (!open.empty()) {
            const unsigned cell = open[rng.below(open.size())];
            const FpOp op = static_cast<FpOp>(
                (cell - kOpVlBase) / isa::kMaxVectorLength);
            const unsigned vl =
                (cell - kOpVlBase) % isa::kMaxVectorLength + 1;
            emitVector(st, op, vl, rng.chance(50), rng.chance(50));
        }
    }

    // Body: a random mix of the block kinds.
    const unsigned blocks = 6 + static_cast<unsigned>(rng.below(15));
    for (unsigned b = 0; b < blocks; ++b) {
        switch (rng.below(8)) {
          case 0:
          case 1:
            emitVector(st, randomOp(rng),
                       1 + static_cast<unsigned>(
                               rng.below(isa::kMaxVectorLength)),
                       rng.chance(60), rng.chance(60));
            break;
          case 2:
            emitChain(st);
            break;
          case 3:
            emitDivisionMacro(st);
            break;
          case 4:
            emitFpMemOp(st);
            break;
          case 5:
            emitLoop(st);
            break;
          case 6:
            emitForwardBranch(st);
            break;
          default:
            emitIntOp(st);
            break;
        }
    }

    // Epilogue: drain the FPU, then expose vector results to the
    // integer side and to memory so divergences surface everywhere
    // the lockstep final-state comparison looks.
    emitDrain(st);
    const unsigned exposes = 2 + static_cast<unsigned>(rng.below(4));
    for (unsigned i = 0; i < exposes; ++i) {
        const unsigned fr = static_cast<unsigned>(rng.below(kVecZone));
        if (rng.chance(50))
            st.emit(Instr::stf(fr, kBaseReg, st.pickPoolOffset()));
        else
            st.emit(Instr::mvfc(st.pickIntScratch(), fr));
    }
    st.emit(Instr::halt());

    prog.code = std::move(st.code);
    return prog;
}

} // namespace mtfpu::fuzz
