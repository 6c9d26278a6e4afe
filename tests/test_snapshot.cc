/**
 * @file
 * Snapshot subsystem tests: the versioned binary container rejects
 * every class of damage (corruption, truncation, version skew, config
 * mismatch); a mid-run capture/restore continues bit-identically to
 * the uninterrupted run for every benchmark kernel under both softfp
 * backends; a SimJob that starts from a mid-run snapshot ends like
 * the uninterrupted run; the fault campaign's snapshot-fork and
 * journal-resume modes, and the trials it classifies from the golden
 * run's footprint without simulating them, classify exactly like the
 * from-scratch sweep; and a committed golden snapshot pins the
 * serialized format (any layout change must bump kFormatVersion).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "common/file_io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "faults/campaign.hh"
#include "kernels/graphics/transform.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/lockstep.hh"
#include "machine/machine.hh"
#include "machine/sim_driver.hh"
#include "service/server.hh"
#include "snapshot/snapshot.hh"
#include "test_dir.hh"

namespace
{

using namespace mtfpu;

/** Full machine state as bytes (registers, memory, pipeline, stats). */
std::vector<uint8_t>
stateBytes(const machine::Machine &m)
{
    ByteWriter out;
    m.saveState(out);
    return out.take();
}

/** A small program with real work for the container tests. */
machine::Machine
smallMachine(const machine::MachineConfig &cfg = machine::MachineConfig{})
{
    machine::Machine m(cfg);
    m.loadProgram(assembler::assemble(R"(
            li   r1, 0
            li   r2, 10
    loop:   add  r1, r1, r2
            subi r2, r2, 1
            bne  r2, r0, loop
            nop
            st   r1, 256(r0)
            halt
    )"));
    return m;
}

TEST(SnapshotContainer, SerializeDeserializeRoundTrip)
{
    machine::Machine m = smallMachine();
    ASSERT_EQ(m.runUntil(7).status, machine::RunStatus::Paused);

    const snapshot::MachineSnapshot snap = snapshot::capture(m);
    const std::vector<uint8_t> bytes = snapshot::serialize(snap);
    const snapshot::MachineSnapshot back = snapshot::deserialize(bytes);

    EXPECT_TRUE(back.config == snap.config);
    EXPECT_EQ(back.program.code, snap.program.code);
    EXPECT_EQ(back.state, snap.state);
}

TEST(SnapshotContainer, RejectsCorruption)
{
    machine::Machine m = smallMachine();
    m.runUntil(5);
    const std::vector<uint8_t> good =
        snapshot::serialize(snapshot::capture(m));

    // A bit flip anywhere — header, payload, or the CRC itself —
    // must be caught by the checksum before any field is trusted.
    for (const size_t at : {size_t{0}, size_t{5}, good.size() / 2,
                            good.size() - 1}) {
        std::vector<uint8_t> bad = good;
        bad[at] ^= 0x40;
        try {
            snapshot::deserialize(bad);
            FAIL() << "accepted a snapshot corrupted at byte " << at;
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
        }
    }
}

TEST(SnapshotContainer, RejectsTruncation)
{
    machine::Machine m = smallMachine();
    m.runUntil(5);
    const std::vector<uint8_t> good =
        snapshot::serialize(snapshot::capture(m));

    for (const size_t keep : {size_t{0}, size_t{3}, size_t{17},
                              good.size() / 2, good.size() - 1}) {
        try {
            snapshot::deserialize(good.data(), keep);
            FAIL() << "accepted a snapshot truncated to " << keep
                   << " bytes";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
        }
    }
}

TEST(SnapshotContainer, RejectsUnknownVersion)
{
    machine::Machine m = smallMachine();
    m.runUntil(5);
    std::vector<uint8_t> bytes =
        snapshot::serialize(snapshot::capture(m));

    // Patch the version field (little-endian u32 right after the
    // 4-byte magic) and re-seal the CRC so only the version is wrong.
    bytes[4] = static_cast<uint8_t>(snapshot::kFormatVersion + 1);
    const uint32_t crc =
        crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
    for (int i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + i] =
            static_cast<uint8_t>(crc >> (8 * i));

    try {
        snapshot::deserialize(bytes);
        FAIL() << "accepted a future-version snapshot";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos);
    }
}

/** Overwrite the little-endian u32 at @p at. */
void
putU32(std::vector<uint8_t> &bytes, size_t at, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes.at(at + i) = static_cast<uint8_t>(v >> (8 * i));
}

/** Overwrite the little-endian u64 at @p at. */
void
putU64(std::vector<uint8_t> &bytes, size_t at, uint64_t v)
{
    putU32(bytes, at, static_cast<uint32_t>(v));
    putU32(bytes, at + 4, static_cast<uint32_t>(v >> 32));
}

/**
 * Seal @p snap in a container with a fresh CRC, parse it back and
 * restore it into a new machine: the path a hostile file that passes
 * the CRC takes. Returns the BadSnapshot message, or "" on success.
 */
std::string
restoreSealed(const snapshot::MachineSnapshot &snap)
{
    try {
        const snapshot::MachineSnapshot back =
            snapshot::deserialize(snapshot::serialize(snap));
        machine::Machine m(back.config);
        snapshot::restore(m, back);
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot) << err.what();
        return err.what();
    }
    return "";
}

// Offsets into the state blob of a freshly loaded machine, where no
// write, op or load is in flight and the ALU IR is empty: the Cpu's
// registers then its pending-write count; the rest of the Cpu (pc,
// redirect, halted) and the FPU's registers; the scoreboard word, then
// the functional units' count, the empty IR's flag byte and the
// load/store unit's count.
constexpr size_t kCpuPendingCount = isa::kNumIntRegs * 8;
constexpr size_t kScoreboard =
    kCpuPendingCount + 4 + 10 + isa::kNumFpuRegs * 8;
constexpr size_t kFuCount = kScoreboard + 8;
constexpr size_t kIrFlag = kFuCount + 4;
constexpr size_t kLsuCount = kIrFlag + 1;

/** A snapshot of smallMachine() before it runs, with the layout
 *  above checked. */
snapshot::MachineSnapshot
idleSnapshot()
{
    snapshot::MachineSnapshot snap = snapshot::capture(smallMachine());
    ByteReader cpu(snap.state.data() + kCpuPendingCount, 4);
    ByteReader fu(snap.state.data() + kFuCount, 9);
    EXPECT_EQ(cpu.u32(), 0u);
    EXPECT_EQ(fu.u32(), 0u);
    EXPECT_EQ(fu.u8(), 0u);
    EXPECT_EQ(fu.u32(), 0u);
    EXPECT_EQ(restoreSealed(snap), "");
    return snap;
}

/** The truncation message a count of 0xffffffff elements of
 *  @p elem_bytes each must produce. */
std::string
hostileCount(uint64_t elem_bytes)
{
    return "wanted " + std::to_string(uint64_t{0xffffffff} * elem_bytes) +
           " bytes";
}

TEST(SnapshotHostile, CpuPendingWriteCountIsBounded)
{
    snapshot::MachineSnapshot snap = idleSnapshot();
    putU32(snap.state, kCpuPendingCount, 0xffffffff);
    EXPECT_NE(restoreSealed(snap).find(hostileCount(13)), std::string::npos);
}

TEST(SnapshotHostile, FunctionalUnitCountIsBounded)
{
    snapshot::MachineSnapshot snap = idleSnapshot();
    putU32(snap.state, kFuCount, 0xffffffff);
    EXPECT_NE(restoreSealed(snap).find(hostileCount(23)), std::string::npos);
}

TEST(SnapshotHostile, LoadStoreUnitCountIsBounded)
{
    snapshot::MachineSnapshot snap = idleSnapshot();
    putU32(snap.state, kLsuCount, 0xffffffff);
    EXPECT_NE(restoreSealed(snap).find(hostileCount(13)), std::string::npos);
}

TEST(SnapshotHostile, ProgramLengthIsBounded)
{
    const snapshot::MachineSnapshot snap = idleSnapshot();
    std::vector<uint8_t> bytes = snapshot::serialize(snap);
    // The container ends: program count, program words, state length,
    // state bytes, CRC.
    const size_t count = bytes.size() - 4 - snap.state.size() - 8 -
                         4 * snap.program.code.size() - 4;
    ASSERT_EQ(bytes[count], snap.program.code.size());
    putU32(bytes, count, 0xffffffff);
    putU32(bytes, bytes.size() - 4,
           crc32(bytes.data(), bytes.size() - sizeof(uint32_t)));
    try {
        snapshot::deserialize(bytes);
        FAIL() << "accepted a program of 2^32-1 instructions";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
        EXPECT_NE(std::string(err.what()).find(hostileCount(4)),
                  std::string::npos)
            << err.what();
    }
}

TEST(SnapshotHostile, FunctionalUnitOpNeedsAStageLeft)
{
    // Splice one in-flight op to f1, with f1's scoreboard bit, into
    // the idle state. With no stage left (remaining == 0) the op
    // would never come due; more stages than the latency cannot
    // exist.
    const auto withOp = [](uint32_t remaining) {
        snapshot::MachineSnapshot snap = idleSnapshot();
        putU64(snap.state, kScoreboard, uint64_t{1} << 1);
        ByteWriter op;
        op.u32(remaining);
        op.u8(1);  // f1
        op.u64(0); // value
        op.u8(0);  // flags
        op.u8(0);  // add
        op.u64(0); // seq
        putU32(snap.state, kFuCount, 1);
        snap.state.insert(snap.state.begin() + kFuCount + 4,
                          op.data().begin(), op.data().end());
        return snap;
    };
    EXPECT_EQ(restoreSealed(withOp(1)), "");
    EXPECT_NE(restoreSealed(withOp(0)).find("0 stages left"),
              std::string::npos);
    EXPECT_NE(restoreSealed(withOp(machine::MachineConfig{}.fpuLatency + 1))
                  .find("stages left"),
              std::string::npos);
}

TEST(SnapshotHostile, DelayedWritesNeedACycleLeft)
{
    const auto withPending = [](size_t at, uint32_t remaining) {
        snapshot::MachineSnapshot snap = idleSnapshot();
        ByteWriter write;
        write.u32(remaining);
        write.u8(1); // r1 / f1
        write.u64(7);
        putU32(snap.state, at, 1);
        snap.state.insert(snap.state.begin() + at + 4,
                          write.data().begin(), write.data().end());
        return snap;
    };
    EXPECT_EQ(restoreSealed(withPending(kCpuPendingCount, 2)), "");
    EXPECT_NE(restoreSealed(withPending(kCpuPendingCount, 0)), "");
    EXPECT_NE(restoreSealed(withPending(kCpuPendingCount, 3)), "");
    EXPECT_EQ(restoreSealed(withPending(kLsuCount, 1)), "");
    EXPECT_NE(restoreSealed(withPending(kLsuCount, 0)), "");
    EXPECT_NE(restoreSealed(withPending(kLsuCount, 2)), "");
}

/** Pipeline contents to splice into the idle state: entries are
 *  (cycles or stages left, register). */
struct PipelineState
{
    std::vector<std::pair<uint32_t, uint8_t>> cpuWrites;
    uint64_t reserved = 0; // the scoreboard word
    std::vector<std::pair<uint32_t, uint8_t>> ops;
    std::vector<std::pair<uint32_t, uint8_t>> loads;
};

snapshot::MachineSnapshot
withPipeline(const PipelineState &p)
{
    snapshot::MachineSnapshot snap = idleSnapshot();
    std::vector<uint8_t> &state = snap.state;
    // Set a count and insert its entries; from the back of the blob
    // forward, so the earlier offsets still hold.
    const auto splice = [&](size_t at, const auto &entries, bool op) {
        ByteWriter out;
        for (const auto &[left, reg] : entries) {
            out.u32(left);
            out.u8(reg);
            out.u64(7); // value
            if (op) {
                out.u8(0);  // flags
                out.u8(0);  // add
                out.u64(1); // seq
            }
        }
        putU32(state, at, static_cast<uint32_t>(entries.size()));
        state.insert(state.begin() + at + 4, out.data().begin(),
                     out.data().end());
    };
    splice(kLsuCount, p.loads, false);
    splice(kFuCount, p.ops, true);
    putU64(state, kScoreboard, p.reserved);
    splice(kCpuPendingCount, p.cpuWrites, false);
    return snap;
}

TEST(SnapshotHostile, PipelineStateMustBeReachable)
{
    // Each scoreboard reservation belongs to exactly one op in flight,
    // one op at most comes due per cycle, the memory port lets one
    // FPU load be in flight, and the CPU's interlock lets one delayed
    // write per register be in flight, one coming due per cycle.
    struct Row
    {
        const char *what;
        PipelineState state;
    };
    const uint64_t f1 = uint64_t{1} << 1, f2 = uint64_t{1} << 2;
    const Row rows[] = {
        {"op whose scoreboard bit is clear", {{}, 0, {{1, 1}}, {}}},
        {"scoreboard bit with no op", {{}, f1, {}, {}}},
        {"scoreboard bit past f51", {{}, uint64_t{1} << 52, {}, {}}},
        {"two ops due in one cycle", {{}, f1 | f2, {{2, 1}, {2, 2}}, {}}},
        {"two FPU loads", {{}, 0, {}, {{1, 1}, {1, 2}}}},
        {"two CPU writes due in one cycle", {{{2, 1}, {2, 2}}, 0, {}, {}}},
        {"two CPU writes to one register", {{{1, 1}, {2, 1}}, 0, {}, {}}},
    };
    for (const Row &row : rows)
        EXPECT_NE(restoreSealed(withPipeline(row.state)), "") << row.what;

    // Controls: the same entries in states the machine does reach.
    EXPECT_EQ(restoreSealed(withPipeline({{}, f1 | f2, {{1, 1}, {2, 2}}, {}})),
              "");
    EXPECT_EQ(restoreSealed(withPipeline({{{1, 1}, {2, 2}}, 0, {}, {{1, 3}}})),
              "");
}

TEST(SnapshotHostile, AluIrFieldsAreInRange)
{
    // Splice a live instruction into the idle IR. The IR can only hold
    // one of the eight ops, specifiers inside the 52-register file and
    // a VL field of at most 15; anything else would index past the op
    // table or the register file at the next element issue.
    struct Case
    {
        uint8_t op, rr, ra, rb, vl;
        bool ok;
    };
    const Case cases[] = {
        {0, 1, 2, 3, 0, true},       {7, 51, 51, 51, 15, true},
        {8, 1, 2, 3, 0, false},      {0xff, 1, 2, 3, 0, false},
        {0, 52, 2, 3, 0, false},     {0, 200, 2, 3, 0, false},
        {0, 1, 52, 3, 0, false},     {0, 1, 2, 52, 0, false},
        {0, 1, 2, 3, 16, false},
    };
    for (const Case &c : cases) {
        snapshot::MachineSnapshot snap = idleSnapshot();
        ByteWriter live;
        for (const uint8_t field : {c.op, c.rr, c.ra, c.rb, c.vl})
            live.u8(field);
        live.b(true);  // sra
        live.b(false); // srb
        live.u64(1);   // seq
        snap.state.at(kIrFlag) = 1;
        snap.state.insert(snap.state.begin() + kIrFlag + 1,
                          live.data().begin(), live.data().end());
        EXPECT_EQ(restoreSealed(snap).empty(), c.ok)
            << "op " << int{c.op} << " f" << int{c.rr} << " := f"
            << int{c.ra} << ", f" << int{c.rb} << " VL field "
            << int{c.vl};
    }
}

TEST(SnapshotHostile, EnumFieldsAreInRange)
{
    const auto rejects = [](const std::function<void()> &load) {
        try {
            load();
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
            return std::string(err.what()).find("out-of-range") !=
                   std::string::npos;
        }
        return false;
    };

    // A functional-unit op past FpOp::Recip.
    snapshot::MachineSnapshot machineSnap = idleSnapshot();
    ByteWriter op;
    op.u32(1);  // stages left
    op.u8(1);   // f1
    op.u64(0);  // value
    op.u8(0);   // flags
    op.u8(8);   // op
    op.u64(0);  // seq
    putU32(machineSnap.state, kFuCount, 1);
    machineSnap.state.insert(machineSnap.state.begin() + kFuCount + 4,
                             op.data().begin(), op.data().end());
    EXPECT_NE(restoreSealed(machineSnap).find("out-of-range"),
              std::string::npos);

    // The config blob's hazard policy and softfp backend follow the
    // container header (magic, version, kind) and fpuLatency,
    // cycleNs, storeCycles and overlapWithVector.
    const size_t hazardPolicy = 4 + 4 + 1 + 4 + 8 + 4 + 1;
    for (const size_t at : {hazardPolicy, hazardPolicy + 1}) {
        std::vector<uint8_t> bytes =
            snapshot::serialize(snapshot::capture(smallMachine()));
        bytes.at(at) = 3;
        putU32(bytes, bytes.size() - 4,
               crc32(bytes.data(), bytes.size() - sizeof(uint32_t)));
        EXPECT_TRUE(rejects([&] { snapshot::deserialize(bytes); }))
            << "config byte " << at;
    }

    // In an armed lockstep checker's stream, the shadow interpreter's
    // backend follows the armed flag and two counters, then the
    // interpreter's registers, pc, halted, redirect flag and target,
    // and element count.
    {
        machine::Machine lm = smallMachine();
        machine::LockstepChecker checker(lm);
        lm.addObserver(&checker);
        ASSERT_EQ(lm.runUntil(3).status, machine::RunStatus::Paused);
        ByteWriter out;
        checker.saveState(out);
        std::vector<uint8_t> stream = out.take();
        const size_t backend = 1 + 8 + 8 +
                               (isa::kNumIntRegs + isa::kNumFpuRegs) * 8 +
                               4 + 1 + 1 + 4 + 8;
        ASSERT_EQ(stream.at(backend),
                  static_cast<uint8_t>(lm.config().fpBackend));
        stream.at(backend) = 2;
        machine::LockstepChecker resumed(lm);
        ByteReader in(stream);
        EXPECT_TRUE(rejects([&] { resumed.restoreState(in); }));
    }

    // RunStats (ResultCache entries, the wire's stats_hex) lead with
    // the status.
    ByteWriter out;
    machine::RunStats{}.saveState(out);
    std::vector<uint8_t> stats = out.take();
    stats.at(0) = 4;
    ByteReader in(stats);
    machine::RunStats back;
    EXPECT_TRUE(rejects([&] { back.restoreState(in); }));
}

TEST(SnapshotContainer, RestoreRequiresMatchingConfig)
{
    machine::Machine m = smallMachine();
    m.runUntil(5);
    const snapshot::MachineSnapshot snap = snapshot::capture(m);

    machine::MachineConfig other;
    other.fpuLatency = 7;
    machine::Machine wrong(other);
    try {
        snapshot::restore(wrong, snap);
        FAIL() << "restored into a differently-configured machine";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
    }

    // Kind confusion: the kind byte after magic and version must name
    // a Machine (1 was the Interpreter kind, which is gone).
    std::vector<uint8_t> bytes = snapshot::serialize(snap);
    ASSERT_EQ(bytes.at(8), 0);
    bytes.at(8) = 1;
    putU32(bytes, bytes.size() - 4,
           crc32(bytes.data(), bytes.size() - sizeof(uint32_t)));
    try {
        snapshot::deserialize(bytes);
        FAIL() << "accepted a snapshot of another kind";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
    }
}

/**
 * The core acceptance property, parameterized over any kernel: pause
 * a run at a deterministic pseudo-random mid cycle, round-trip the
 * machine through the serialized snapshot into a *fresh* machine, and
 * the continued run must be bit-identical to the uninterrupted one —
 * RunStats and complete final machine state (memory included).
 */
void
expectMidRunRoundTrip(const std::string &label, const machine::SimJob &job)
{
    SCOPED_TRACE(label);

    machine::Machine a(job.config);
    machine::startJob(job, a);
    const machine::RunStats ref = a.run();
    ASSERT_EQ(ref.status, machine::RunStatus::Ok);
    ASSERT_GT(ref.cycles, 0u);

    // FNV-1a over the label picks a stable arbitrary pause cycle in
    // [1, ref.cycles] — always inside the run, never past its end.
    uint64_t h = 1469598103934665603ull;
    for (const char c : label)
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    const uint64_t stop = 1 + h % ref.cycles;

    machine::Machine b(job.config);
    machine::startJob(job, b);
    ASSERT_EQ(b.runUntil(stop).status, machine::RunStatus::Paused);

    const std::vector<uint8_t> bytes =
        snapshot::serialize(snapshot::capture(b));
    const snapshot::MachineSnapshot snap = snapshot::deserialize(bytes);

    machine::Machine c(job.config);
    snapshot::restore(c, snap);
    const machine::RunStats done = c.run();

    EXPECT_TRUE(done == ref) << "stats diverged after restore at cycle "
                             << stop;
    EXPECT_EQ(stateBytes(c), stateBytes(a))
        << "final machine state diverged after restore at cycle " << stop;
}

void
kernelRoundTrips(softfp::Backend backend)
{
    machine::MachineConfig cfg;
    cfg.fpBackend = backend;

    std::vector<kernels::Kernel> suite = kernels::livermore::all(true);
    suite.push_back(kernels::linpack::make(false, 20));
    suite.push_back(kernels::linpack::make(true, 20));

    for (const kernels::Kernel &k : suite) {
        expectMidRunRoundTrip(k.name + "/" + k.variant,
                              kernels::pureKernelJob(k, cfg));
    }

    // The §3.1 graphics transform (registers seeded too, not just
    // memory): reuse the batch job's start image verbatim.
    const std::array<double, 16> matrix{2, 0, 0, 1, 0, 3, 0, 2,
                                        0, 0, 4, 3, 0, 0, 0, 1};
    const std::array<double, 4> point{1, 2, 3, 1};
    kernels::graphics::TransformResult out;
    expectMidRunRoundTrip("graphics/transform",
                          kernels::graphics::makeTransformJob(
                              cfg, true, matrix, point, out));
}

TEST(SnapshotKernels, MidRunRoundTripHostBackend)
{
    kernelRoundTrips(softfp::Backend::HostFast);
}

TEST(SnapshotKernels, MidRunRoundTripSoftBackend)
{
    kernelRoundTrips(softfp::Backend::Soft);
}

TEST(SnapshotKernels, ChunkedRunMatchesUninterrupted)
{
    // Many small runUntil slices end in the same stats as one
    // uninterrupted run.
    const kernels::Kernel k = kernels::livermore::make(3, true);
    const machine::MachineConfig cfg;

    machine::Machine a(cfg);
    a.loadProgram(k.program);
    k.init(a.mem());
    const machine::RunStats ref = a.run();

    machine::Machine b(cfg);
    b.loadProgram(k.program);
    k.init(b.mem());
    machine::RunStats last;
    for (;;) {
        last = b.runUntil(b.nextCycle() + 257);
        if (last.status != machine::RunStatus::Paused)
            break;
    }
    EXPECT_TRUE(last == ref);
    EXPECT_EQ(stateBytes(b), stateBytes(a));
}

TEST(SnapshotStart, MidRunStartMatchesUninterrupted)
{
    // A job whose start is a mid-run snapshot of a pure job ends with
    // the uninterrupted run's RunStats — and is never pure itself.
    const kernels::Kernel k = kernels::livermore::make(1, false);
    const machine::SimJob pure =
        kernels::pureKernelJob(k, machine::MachineConfig{});
    ASSERT_TRUE(machine::isPureJob(pure));
    const machine::SimDriver driver(1);
    const machine::SimJobResult whole = driver.runAttempt(pure);
    ASSERT_TRUE(whole.ok) << whole.error;

    machine::Machine m(pure.config);
    machine::startJob(pure, m);
    ASSERT_EQ(m.runUntil(whole.stats.cycles / 2).status,
              machine::RunStatus::Paused);
    machine::SimJob resumed;
    resumed.name = "resumed";
    resumed.config = pure.config;
    resumed.start = std::make_shared<const machine::JobStart>(
        machine::JobStart{snapshot::capture(m), {}});
    EXPECT_FALSE(machine::isPureJob(resumed));

    const machine::SimJobResult rest = driver.runAttempt(resumed);
    ASSERT_TRUE(rest.ok) << rest.error;
    EXPECT_TRUE(rest.stats == whole.stats);
}

/** Small campaign shared by the fork and journal tests. */
std::vector<kernels::Kernel>
campaignKernels()
{
    return {kernels::livermore::make(1, true),
            kernels::livermore::make(5, false)};
}

faults::CampaignConfig
campaignConfig()
{
    faults::CampaignConfig cfg;
    cfg.faultsPerKernel = 6;
    cfg.seed = 7;
    cfg.lockstep = true;
    cfg.threads = 2;
    return cfg;
}

void
expectSameTrials(const faults::CampaignResult &a,
                 const faults::CampaignResult &b)
{
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (size_t i = 0; i < a.trials.size(); ++i) {
        SCOPED_TRACE(a.trials[i].kernel + " seed " +
                     std::to_string(a.trials[i].seed));
        EXPECT_EQ(b.trials[i].kernel, a.trials[i].kernel);
        EXPECT_EQ(b.trials[i].seed, a.trials[i].seed);
        EXPECT_EQ(b.trials[i].outcome, a.trials[i].outcome);
        EXPECT_EQ(b.trials[i].errorCode, a.trials[i].errorCode);
        EXPECT_EQ(b.trials[i].cycles, a.trials[i].cycles);
    }
}

/**
 * Append to @p out @p kernel's golden run and the trials @p make_trials
 * builds from its cycle count, each simulated without runCampaign:
 * rebuilt from scratch (the kernel's program and memory image, its
 * plan, lockstep and cycle guard), run through SimDriver and
 * classified.
 */
void
simulateFromScratch(
    const kernels::Kernel &kernel, const faults::CampaignConfig &cfg,
    const std::function<std::vector<faults::FaultTrial>(uint64_t)>
        &make_trials,
    faults::CampaignResult &out)
{
    const machine::SimDriver driver(cfg.threads);
    machine::SimJob golden;
    golden.name = kernel.name;
    golden.program = kernel.program;
    golden.config = cfg.machine;
    golden.memInit =
        kernels::memImage(kernel.init, cfg.machine.memory.memBytes);
    std::vector<double> sums(1, 0.0);
    const auto checksumInto = [&](size_t j) {
        return [&sums, j, checksum = kernel.checksum](machine::Machine &m) {
            const machine::RunStats stats = m.run();
            sums[j] = checksum(m.mem());
            return stats;
        };
    };
    golden.body = checksumInto(0);
    const machine::SimJobResult g = driver.runAttempt(golden);
    EXPECT_TRUE(g.ok) << g.error;
    out.kernels.push_back(kernel.name);
    out.goldenChecksums.push_back(sums[0]);
    out.goldenCycles.push_back(g.stats.cycles);

    std::vector<faults::FaultTrial> trials = make_trials(g.stats.cycles);
    sums.resize(trials.size() + 1, 0.0);
    std::vector<machine::SimJob> jobs;
    for (size_t i = 0; i < trials.size(); ++i) {
        machine::SimJob job = golden;
        job.config.maxCycles = faults::trialCycleGuard(g.stats.cycles);
        job.faultPlan = trials[i].plan;
        job.lockstep = cfg.lockstep;
        job.body = checksumInto(i + 1);
        jobs.push_back(std::move(job));
    }
    const std::vector<machine::SimJobResult> res = driver.run(jobs);
    for (size_t i = 0; i < trials.size(); ++i) {
        faults::FaultTrial &trial = trials[i];
        const machine::SimJobResult &r = res[i];
        trial.cycles = r.stats.cycles;
        trial.errorCode = r.ok ? "" : enumName(r.errCode);
        if (r.ok) {
            const bool same = std::bit_cast<uint64_t>(sums[i + 1]) ==
                              std::bit_cast<uint64_t>(sums[0]);
            trial.outcome = same ? faults::FaultOutcome::Masked
                                 : faults::FaultOutcome::Sdc;
        } else if (r.errCode == ErrCode::LockstepDivergence) {
            trial.outcome = faults::FaultOutcome::DetectedLockstep;
        } else {
            trial.outcome = faults::FaultOutcome::DetectedHardware;
        }
        out.trials.push_back(std::move(trial));
    }
}

/** The campaign @p cfg describes, every trial simulated from scratch. */
faults::CampaignResult
fromScratchCampaign(const std::vector<kernels::Kernel> &kernel_list,
                    const faults::CampaignConfig &cfg)
{
    faults::CampaignResult ref;
    for (size_t k = 0; k < kernel_list.size(); ++k) {
        simulateFromScratch(
            kernel_list[k], cfg,
            [&](uint64_t golden_cycles) {
                std::vector<faults::FaultTrial> trials(cfg.faultsPerKernel);
                for (unsigned i = 0; i < cfg.faultsPerKernel; ++i) {
                    trials[i].kernel = kernel_list[k].name;
                    trials[i].seed = faults::campaignTrialSeed(cfg.seed, k, i);
                    trials[i].plan = faults::FaultPlan::randomSingle(
                        trials[i].seed, golden_cycles);
                }
                return trials;
            },
            ref);
    }
    return ref;
}

TEST(CampaignSnapshot, ForkedCampaignClassifiesIdentically)
{
    const auto kernels = campaignKernels();
    faults::CampaignConfig cfg = campaignConfig();
    const faults::CampaignResult ref = fromScratchCampaign(kernels, cfg);

    const faults::CampaignResult unforked =
        faults::runCampaign(kernels, cfg);
    cfg.fork = true;
    const faults::CampaignResult forked =
        faults::runCampaign(kernels, cfg);

    // Both modes start their trials from reference-run captures; each
    // must classify exactly as the trials simulated from scratch.
    for (const faults::CampaignResult *result : {&unforked, &forked}) {
        SCOPED_TRACE(result == &forked ? "forked" : "unforked");
        expectSameTrials(ref, *result);
        EXPECT_EQ(result->goldenChecksums, ref.goldenChecksums);
        EXPECT_EQ(result->goldenCycles, ref.goldenCycles);
    }
}

TEST(CampaignSnapshot, ForkWindowsSplitAKernelsTrials)
{
    // More distinct injection cycles than one window holds: the
    // forked campaign captures, runs and releases several windows.
    const std::vector<kernels::Kernel> kernels = {
        kernels::livermore::make(1, true)};
    faults::CampaignConfig cfg = campaignConfig();
    cfg.faultsPerKernel = faults::kForkWindow + 8;

    const faults::CampaignResult unforked =
        faults::runCampaign(kernels, cfg);
    cfg.fork = true;
    const faults::CampaignResult forked =
        faults::runCampaign(kernels, cfg);

    std::set<uint64_t> cycles;
    for (const faults::FaultTrial &trial : forked.trials)
        cycles.insert(trial.plan.faults().front().cycle);
    EXPECT_GT(cycles.size(), faults::kForkWindow);
    expectSameTrials(unforked, forked);
}

/** How many lines of journal @p text record each (kernel, seed); a
 *  torn line records none. */
std::map<std::pair<std::string, uint64_t>, unsigned>
journalLines(const std::string &text)
{
    std::map<std::pair<std::string, uint64_t>, unsigned> lines;
    for (size_t start = 0; start < text.size();) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        try {
            const json::Value v = json::parse(text.substr(start, end - start));
            ++lines[{v.at("kernel").asString(), v.at("seed").asUint()}];
        } catch (const SimError &) {
            // a blank or deliberately torn line
        }
        start = end + 1;
    }
    return lines;
}

/** The journal at @p path records every trial of @p ref exactly once,
 *  under its exact 64-bit seed. */
void
expectJournaledOnce(const std::string &path, const faults::CampaignResult &ref)
{
    const auto lines = journalLines(readFile(path));
    EXPECT_EQ(lines.size(), ref.trials.size());
    for (const faults::FaultTrial &t : ref.trials) {
        const auto it = lines.find({t.kernel, t.seed});
        EXPECT_EQ(it == lines.end() ? 0u : it->second, 1u)
            << t.kernel << " seed " << t.seed;
    }
}

/** Cut the journal at @p path after its first @p keep lines and append
 *  a torn partial line, as a SIGKILL mid-write leaves it; returns the
 *  lines kept. */
std::string
cutJournal(const std::string &path, size_t keep)
{
    const std::string text = readFile(path);
    size_t cut = 0;
    for (size_t lines = 0; lines < keep; ++lines)
        cut = text.find('\n', cut) + 1;
    writeFileAtomic(path,
                    text.substr(0, cut) + "{\"kernel\": \"lfk01\", \"seed\"");
    return text.substr(0, cut);
}

TEST(CampaignSnapshot, JournalResumeMatchesUninterrupted)
{
    const test::TestDir dir("campaign_journal");
    const auto kernels = campaignKernels();
    faults::CampaignConfig cfg = campaignConfig();

    const faults::CampaignResult ref = faults::runCampaign(kernels, cfg);

    // Full journaled run: identical trials, one journal line each.
    cfg.journalPath = dir.file("journal.jsonl");
    const faults::CampaignResult journaled =
        faults::runCampaign(kernels, cfg);
    expectSameTrials(ref, journaled);

    // Simulate a SIGKILL: keep only the first 3 trial lines and a
    // torn partial line, then rerun over the damaged journal. The
    // survivors are skipped, the rest resimulated, and the combined
    // classification matches the uninterrupted run exactly.
    cutJournal(cfg.journalPath, 3);
    const faults::CampaignResult resumed =
        faults::runCampaign(kernels, cfg);
    expectSameTrials(ref, resumed);

    // After the resume, the journal records every trial exactly once;
    // only the torn line stays dead.
    expectJournaledOnce(cfg.journalPath, ref);
}

/** The kernels the footprint-pruning tests run. */
std::vector<kernels::Kernel>
pruningKernels()
{
    return {kernels::livermore::make(1, true),
            kernels::livermore::make(5, false),
            kernels::livermore::make(7, false),
            kernels::livermore::make(12, false)};
}

/** The site a single-fault trial strikes. */
faults::FaultSite
siteOf(const faults::FaultTrial &trial)
{
    return trial.plan.faults().front().site;
}

TEST(CampaignPruning, EveryRecordMatchesFullSimulation)
{
    // A lockstep campaign classifies a trial whose fault cannot change
    // the golden run without simulating it. Every record must equal
    // the one full simulation gives, forked or not, and each of the
    // five rules must have classified some trials and, but for
    // mem-word, left others to simulate. Seed 5 strikes lfk01
    // registers that only FPALU elements name, where most faults are
    // masked.
    const auto kernels = pruningKernels();
    faults::CampaignConfig cfg = campaignConfig();
    cfg.faultsPerKernel = 60;
    cfg.seed = 5;
    const faults::CampaignResult ref = fromScratchCampaign(kernels, cfg);

    const faults::CampaignResult unforked =
        faults::runCampaign(kernels, cfg);
    cfg.fork = true;
    const faults::CampaignResult forked =
        faults::runCampaign(kernels, cfg);

    for (const faults::CampaignResult *result : {&unforked, &forked}) {
        SCOPED_TRACE(result == &forked ? "forked" : "unforked");
        expectSameTrials(ref, *result);
        EXPECT_EQ(result->goldenCycles, ref.goldenCycles);
    }
    std::map<faults::FaultSite, unsigned> pruned, simulated;
    for (size_t i = 0; i < forked.trials.size(); ++i) {
        EXPECT_EQ(forked.trials[i].pruned, unforked.trials[i].pruned);
        ++(forked.trials[i].pruned ? pruned
                                   : simulated)[siteOf(forked.trials[i])];
    }
    // The kernels touch a few thousand of the 512K memory words, so a
    // mem-word trial that must run is too rare to ask for.
    // A softfp-flags trial simulates only when it flips an overflow
    // flag and some FPALU instruction is a vector: here lfk01's.
    for (faults::FaultSite site :
         {faults::FaultSite::CpuReg, faults::FaultSite::FpuReg,
          faults::FaultSite::MemWord, faults::FaultSite::CacheLine,
          faults::FaultSite::SoftfpFlags})
        EXPECT_GT(pruned[site], 0u) << enumName(site);
    for (faults::FaultSite site :
         {faults::FaultSite::CpuReg, faults::FaultSite::FpuReg,
          faults::FaultSite::CacheLine, faults::FaultSite::SoftfpFlags})
        EXPECT_GT(simulated[site], 0u) << enumName(site);
    EXPECT_EQ(pruned[faults::FaultSite::SoftfpResult], 0u);
}

TEST(CampaignPruning, WithoutLockstepEveryTrialSimulates)
{
    faults::CampaignConfig cfg = campaignConfig();
    cfg.lockstep = false;
    for (const faults::FaultTrial &t :
         faults::runCampaign(campaignKernels(), cfg).trials)
        EXPECT_FALSE(t.pruned) << t.kernel << " seed " << t.seed;
}

TEST(CampaignPruning, UntouchedVictimsMatchTheRuleAtBothEnds)
{
    // Take one victim per rule from the trials a campaign over lfk12
    // classified without simulation, strike it at cycle 0 and at the
    // golden run's last cycle, and simulate each trial from scratch
    // under lockstep. Each must end with the record the rule gave: the
    // register and word rules do not depend on the cycle, and a struck
    // cache set is read neither before its first miss (the line is
    // invalid, and lfk12's tags are not 0) nor after its last access.
    // CacheLineRuleFollowsTheNextAccess covers the cycles between.
    const std::vector<kernels::Kernel> kernels = {
        kernels::livermore::make(12, false)};
    faults::CampaignConfig cfg = campaignConfig();
    cfg.faultsPerKernel = 60;
    const faults::CampaignResult campaign = faults::runCampaign(kernels, cfg);

    std::vector<faults::FaultTrial> expected;
    for (faults::FaultSite site :
         {faults::FaultSite::CpuReg, faults::FaultSite::FpuReg,
          faults::FaultSite::MemWord, faults::FaultSite::CacheLine}) {
        const auto it = std::find_if(
            campaign.trials.begin(), campaign.trials.end(),
            [&](const faults::FaultTrial &t) {
                return t.pruned && siteOf(t) == site;
            });
        ASSERT_NE(it, campaign.trials.end()) << enumName(site);
        for (bool last : {false, true}) {
            faults::FaultTrial trial = *it;
            faults::Fault fault = trial.plan.faults().front();
            fault.cycle = last ? campaign.goldenCycles[0] : 0;
            trial.plan = faults::FaultPlan({fault});
            expected.push_back(std::move(trial));
        }
    }
    faults::CampaignResult simulated;
    simulateFromScratch(
        kernels[0], cfg, [&](uint64_t) { return expected; }, simulated);
    ASSERT_EQ(simulated.goldenCycles, campaign.goldenCycles);
    ASSERT_EQ(simulated.trials.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(expected[i].plan.describe());
        EXPECT_EQ(simulated.trials[i].outcome, expected[i].outcome);
        EXPECT_EQ(simulated.trials[i].errorCode, expected[i].errorCode);
        EXPECT_EQ(simulated.trials[i].cycles, expected[i].cycles);
    }
}

/** Records the golden run's data accesses. */
class DataAccessLog : public exec::ExecObserver
{
  public:
    void
    onMemAccess(const exec::MemAccessEvent &event) override
    {
        if (event.kind != exec::MemAccessKind::InstrFetch)
            accesses.push_back(event);
    }

    std::vector<exec::MemAccessEvent> accesses;
};

TEST(CampaignPruning, CacheLineRuleFollowsTheNextAccess)
{
    // Three loads index data-cache set 4: A misses, A hits, then
    // A + 128 KB misses. A's tag is 1 and the third load's is 3, so
    // they differ in tag bit 1 (fault mask 0x4). A struck line matters
    // only if the set's next access at or after the fault hits, or
    // misses but hits the struck line. Each directed fault below is
    // simulated from scratch under lockstep.
    kernels::Kernel kernel;
    kernel.name = "one-set";
    kernel.variant = "scalar";
    kernel.program = assembler::assemble(R"(
                li   r1, 0x10040
                li   r2, 0x30040
                ldf  f0, 0(r1)
                li   r3, 20
        w1:     subi r3, r3, 1
                bne  r3, r0, w1
                nop
                ldf  f1, 0(r1)
                li   r3, 20
        w2:     subi r3, r3, 1
                bne  r3, r0, w2
                nop
                ldf  f2, 0(r2)
                li   r3, 20
        w3:     subi r3, r3, 1
                bne  r3, r0, w3
                nop
                halt
    )");
    kernel.init = [](memory::MainMemory &mem) {
        mem.write64(0x10040, 0x4000000000000000ull);
    };
    kernel.checksum = [](const memory::MainMemory &mem) {
        return std::bit_cast<double>(mem.read64(0x10040));
    };
    const faults::CampaignConfig cfg = campaignConfig();

    faults::Footprint footprint(kernel.program);
    DataAccessLog log;
    machine::Machine golden(cfg.machine);
    golden.loadProgram(kernel.program);
    kernel.init(golden.mem());
    footprint.watch(golden);
    golden.addObserver(&log);
    const uint64_t goldenCycles = golden.run().cycles;
    ASSERT_EQ(log.accesses.size(), 3u);
    const uint64_t miss = log.accesses[0].cycle;
    const uint64_t hit = log.accesses[1].cycle;
    const uint64_t lastMiss = log.accesses[2].cycle;
    ASSERT_GT(log.accesses[0].penalty, 0u);
    ASSERT_EQ(log.accesses[1].penalty, 0u);
    ASSERT_GT(log.accesses[2].penalty, 0u);

    enum class Expect { Golden, Slower, Faster };
    struct Case
    {
        const char *what;
        uint64_t cycle;
        uint64_t mask;
        Expect expect;
    };
    const Case cases[] = {
        {"valid flip after the miss", miss + 1, 0x1, Expect::Slower},
        {"tag flip at the hit", hit, 0x8, Expect::Slower},
        {"tag flip to the next miss's tag", hit + 1, 0x4, Expect::Faster},
        {"other tag flip before the next miss", hit + 1, 0x8,
         Expect::Golden},
        {"valid flip before the next miss", lastMiss, 0x1, Expect::Golden},
        {"tag flip after the last access", lastMiss + 1, 0x4,
         Expect::Golden},
        {"valid flip after the last access", goldenCycles, 0x1,
         Expect::Golden},
        {"cold line made valid with A's tag", 0, 0x3, Expect::Faster},
        {"cold line made valid with tag 0", 0, 0x1, Expect::Golden},
    };
    std::vector<faults::FaultTrial> trials;
    for (const Case &c : cases) {
        faults::FaultTrial trial;
        trial.kernel = kernel.name;
        trial.plan = faults::FaultPlan(
            {faults::Fault{c.cycle, faults::FaultSite::CacheLine, 4, c.mask}});
        trials.push_back(std::move(trial));
    }
    faults::CampaignResult simulated;
    simulateFromScratch(
        kernel, cfg, [&](uint64_t) { return trials; }, simulated);
    ASSERT_EQ(simulated.goldenCycles.front(), goldenCycles);
    ASSERT_EQ(simulated.trials.size(), std::size(cases));
    for (size_t i = 0; i < std::size(cases); ++i) {
        const Case &c = cases[i];
        const faults::FaultTrial &t = simulated.trials[i];
        SCOPED_TRACE(std::string(c.what) + ": " + t.plan.describe());
        EXPECT_EQ(footprint.touches(t.plan.faults().front()),
                  c.expect != Expect::Golden);
        EXPECT_EQ(t.outcome, faults::FaultOutcome::Masked);
        EXPECT_EQ(t.errorCode, "");
        switch (c.expect) {
          case Expect::Golden: EXPECT_EQ(t.cycles, goldenCycles); break;
          case Expect::Slower: EXPECT_GT(t.cycles, goldenCycles); break;
          case Expect::Faster: EXPECT_LT(t.cycles, goldenCycles); break;
        }
    }
}

TEST(CampaignPruning, CacheAblationsMatchFullSimulation)
{
    // Without modelled caches no access reads a tag, and without a
    // miss penalty no tag changes a cycle: every cache-line trial is
    // decided. Without write-allocate a struck cache set counts if any
    // golden access indexes it. Every record must still equal full
    // simulation's.
    const std::vector<kernels::Kernel> kernels = {
        kernels::livermore::make(7, false),
        kernels::livermore::make(12, false)};
    const struct
    {
        const char *what;
        bool modelCaches;
        unsigned missPenalty;
        bool writeAllocate;
        bool inert;
    } ablations[] = {
        {"ideal memory", false, 14, true, true},
        {"zero miss penalty", true, 0, true, true},
        {"no write-allocate", true, 14, false, false},
    };
    for (const auto &a : ablations) {
        SCOPED_TRACE(a.what);
        faults::CampaignConfig cfg = campaignConfig();
        cfg.faultsPerKernel = 60;
        cfg.seed = 5;
        cfg.fork = true;
        cfg.machine.memory.modelCaches = a.modelCaches;
        cfg.machine.memory.dataCache.missPenalty = a.missPenalty;
        cfg.machine.memory.dataCache.writeAllocate = a.writeAllocate;
        const faults::CampaignResult ref = fromScratchCampaign(kernels, cfg);
        const faults::CampaignResult result =
            faults::runCampaign(kernels, cfg);
        expectSameTrials(ref, result);
        unsigned pruned = 0, simulated = 0;
        for (const faults::FaultTrial &t : result.trials) {
            if (siteOf(t) == faults::FaultSite::CacheLine)
                ++(t.pruned ? pruned : simulated);
        }
        EXPECT_GT(pruned, 0u);
        if (a.inert)
            EXPECT_EQ(simulated, 0u);
        else
            EXPECT_GT(simulated, 0u);
    }
}

TEST(CampaignPruning, ResumeSkipsJournaledPrunedTrials)
{
    // Pruned trials are journaled before their kernel's first batch, so
    // a journal cut early holds them. A resumed campaign skips them and
    // ends with every trial journaled exactly once.
    const test::TestDir dir("campaign_pruned_journal");
    const auto kernels = campaignKernels();
    faults::CampaignConfig cfg = campaignConfig();
    cfg.faultsPerKernel = 20;
    cfg.journalPath = dir.file("journal.jsonl");
    const faults::CampaignResult full = faults::runCampaign(kernels, cfg);

    std::set<uint64_t> prunedSeeds;
    for (const faults::FaultTrial &t : full.trials) {
        if (t.kernel == full.kernels[0] && t.pruned)
            prunedSeeds.insert(t.seed);
    }
    ASSERT_FALSE(prunedSeeds.empty());
    // Keep the first kernel's pruned lines and one more.
    const auto kept =
        journalLines(cutJournal(cfg.journalPath, prunedSeeds.size() + 1));
    for (uint64_t seed : prunedSeeds)
        EXPECT_TRUE(kept.count({full.kernels[0], seed}))
            << "pruned seed " << seed;

    const faults::CampaignResult resumed = faults::runCampaign(kernels, cfg);
    expectSameTrials(full, resumed);
    for (const faults::FaultTrial &t : resumed.trials)
        EXPECT_FALSE(t.pruned && kept.count({t.kernel, t.seed}))
            << "journaled seed " << t.seed;
    expectJournaledOnce(cfg.journalPath, full);
}

/** What a paused Machine's state blob holds, read off its layout. */
struct StateProbe
{
    uint32_t cpuWrites = 0;     // CPU delayed writes in flight
    uint64_t sbBits = 0;        // FPU scoreboard reservations
    uint32_t fuOps = 0;         // functional-unit ops in flight
    bool irLive = false;        // the ALU IR holds an instruction...
    unsigned irVl = 0;          // ...with this VL field...
    bool irStrided = false;     // ...and a stride bit set
    uint64_t dcacheLines = 0;   // valid data-cache lines
};

StateProbe
probeState(const std::vector<uint8_t> &state)
{
    StateProbe p;
    ByteReader in(state);
    const auto skip = [&in](uint64_t n) {
        while (n-- > 0)
            in.u8();
    };
    skip(isa::kNumIntRegs * 8);
    p.cpuWrites = in.u32();
    // Each write (13 bytes), then pc, redirect flag and target, halted,
    // then the FPU registers.
    skip(p.cpuWrites * 13 + 4 + 1 + 4 + 1 + isa::kNumFpuRegs * 8);
    p.sbBits = in.u64();
    p.fuOps = in.u32();
    skip(p.fuOps * 23);
    p.irLive = in.b();
    if (p.irLive) {
        skip(4); // op, rr, ra, rb
        p.irVl = in.u8();
        const bool sra = in.b();
        const bool srb = in.b();
        p.irStrided = sra || srb;
        skip(8); // seq
    }
    skip(in.u32() * 13); // FPU loads
    // PSW (3), FPU statistics (14 x 8), sequence, issue and corruption
    // state (8 + 1 + 1 + 8 + 1), then main memory's size.
    skip(3 + 14 * 8 + 19 + 8);
    skip(in.u64() * 16); // nonzero memory words
    skip(8);             // data-cache line count
    p.dcacheLines = in.u64();
    return p;
}

TEST(SnapshotGolden, CommittedFormatIsStable)
{
    // The canonical golden state: Livermore kernel 1 (scalar) on the
    // default configuration, paused at cycle 777. Regenerate the
    // committed file with MTFPU_WRITE_GOLDEN=1 — only after a
    // deliberate format change that also bumped kFormatVersion.
    const std::string path =
        std::string(MTFPU_TEST_DATA_DIR) + "/golden.snap";
    const machine::MachineConfig cfg;
    const kernels::Kernel k = kernels::livermore::make(1, false);

    machine::Machine m(cfg);
    m.loadProgram(k.program);
    k.init(m.mem());
    ASSERT_EQ(m.runUntil(777).status, machine::RunStatus::Paused);

    if (std::getenv("MTFPU_WRITE_GOLDEN") != nullptr) {
        const std::vector<uint8_t> bytes =
            snapshot::serialize(snapshot::capture(m));
        writeFileAtomic(path,
                        std::string_view(
                            reinterpret_cast<const char *>(bytes.data()),
                            bytes.size()));
        GTEST_SKIP() << "golden snapshot regenerated at " << path;
    }

    // Byte-for-byte: today's serializer must reproduce the committed
    // file exactly, so any layout drift fails here.
    const std::string file = readFile(path);
    const snapshot::MachineSnapshot golden = snapshot::deserialize(
        reinterpret_cast<const uint8_t *>(file.data()), file.size());
    EXPECT_EQ(snapshot::serialize(golden),
              snapshot::serialize(snapshot::capture(m)));

    // And the committed bytes still restore into a correct run.
    machine::Machine restored(golden.config);
    snapshot::restore(restored, golden);
    const machine::RunStats done = restored.run();

    machine::Machine full(cfg);
    full.loadProgram(k.program);
    k.init(full.mem());
    EXPECT_TRUE(done == full.run());

    // CRC-32s of encodings this build must reproduce byte for byte,
    // pinned where golden.snap pins none: Machine states with work in
    // flight in every pipeline, on both softfp backends; an armed
    // lockstep checker; a job content blob; and the wire's stats_hex.
    struct Pause
    {
        int kernel;
        bool vector;
        uint64_t cycle;
        softfp::Backend backend;
        uint32_t crc;
    };
    // The vector pauses hold a live IR with VL > 1 and a stride bit;
    // the scalar ones a CPU delayed write. All hold functional-unit
    // ops in flight, scoreboard bits and valid data-cache lines.
    const Pause pauses[] = {
        {1, true, 235, softfp::Backend::Soft, 0x318d5bf4u},
        {1, true, 235, softfp::Backend::HostFast, 0xb71f2c8fu},
        {14, false, 232, softfp::Backend::Soft, 0xff7b02a5u},
        {14, false, 232, softfp::Backend::HostFast, 0xa8e1f6c9u},
    };
    // A container's CRC over itself is a constant residue, so hash
    // the bytes before its trailer.
    const auto bodyCrc = [](const std::vector<uint8_t> &bytes) {
        return crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
    };
    machine::RunStats paused;
    for (const Pause &pause : pauses) {
        const kernels::Kernel kernel =
            kernels::livermore::make(pause.kernel, pause.vector);
        SCOPED_TRACE(kernel.name + "/" + kernel.variant + " @" +
                     std::to_string(pause.cycle) + " " +
                     enumName(pause.backend));
        machine::MachineConfig pauseCfg;
        pauseCfg.fpBackend = pause.backend;
        machine::Machine pm(pauseCfg);
        pm.loadProgram(kernel.program);
        kernel.init(pm.mem());
        paused = pm.runUntil(pause.cycle);
        ASSERT_EQ(paused.status, machine::RunStatus::Paused);

        const snapshot::MachineSnapshot snap = snapshot::capture(pm);
        const StateProbe p = probeState(snap.state);
        EXPECT_GT(p.fuOps, 0u);
        EXPECT_NE(p.sbBits, 0u);
        EXPECT_GT(p.dcacheLines, 0u);
        if (pause.vector) {
            EXPECT_TRUE(p.irLive);
            EXPECT_GT(p.irVl, 1u);
            EXPECT_TRUE(p.irStrided);
        } else {
            EXPECT_GT(p.cpuWrites, 0u);
        }
        EXPECT_EQ(bodyCrc(snapshot::serialize(snap)), pause.crc);
    }

    // An armed lockstep checker (shadow interpreter included).
    const kernels::Kernel lfk1v = kernels::livermore::make(1, true);
    {
        machine::Machine lm;
        lm.loadProgram(lfk1v.program);
        lfk1v.init(lm.mem());
        machine::LockstepChecker checker(lm);
        lm.addObserver(&checker);
        ASSERT_EQ(lm.runUntil(235).status, machine::RunStatus::Paused);
        ASSERT_GT(checker.issuesChecked(), 0u);
        ByteWriter out;
        checker.saveState(out);
        EXPECT_EQ(crc32(out.data().data(), out.size()), 0x0fb23a44u);
    }

    // A job content blob with every field off its default.
    {
        machine::SimJob job;
        job.program = lfk1v.program;
        job.memInit = {{256, 7}, {4096, 0x4010000000000000ull}};
        job.cpuRegInit = {{1, 5}, {31, 0xffffffffffffffffull}};
        job.fpuRegInit = {{2, 0x3ff0000000000000ull}};
        machine::MachineConfig &c = job.config;
        c.fpuLatency = 5;
        c.cycleNs = 37.5;
        c.storeCycles = 3;
        c.overlapWithVector = false;
        c.hazardPolicy = machine::HazardPolicy::Stall;
        c.fpBackend = softfp::Backend::Soft;
        c.memory.dataCache = {32 * 1024, 32, 9, false};
        c.memory.instrBuffer = {4 * 1024, 8, 3, true};
        c.memory.instrCache = {128 * 1024, 64, 20, false};
        c.memory.memBytes = 1u << 20;
        c.memory.modelCaches = false;
        c.maxCycles = 123456789;
        c.watchdogMs = 4321;
        const std::vector<uint8_t> blob = machine::jobContentBlob(job);
        EXPECT_EQ(crc32(blob.data(), blob.size()), 0xbf389f0eu);
    }

    // The wire's stats_hex of the last paused run above.
    const std::string hex = service::statsToHex(paused);
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(hex.data()),
                    hex.size()),
              0x1d2a1c09u);
}

} // anonymous namespace
