/**
 * @file
 * Snapshot subsystem tests: the versioned binary container rejects
 * every class of damage (corruption, truncation, version skew, config
 * mismatch); a mid-run capture/restore continues bit-identically to
 * the uninterrupted run for every benchmark kernel under both softfp
 * backends; a SimJob that starts from a mid-run snapshot ends like
 * the uninterrupted run; the fault campaign's snapshot-fork and
 * journal-resume modes classify exactly like the from-scratch sweep;
 * and a committed golden snapshot pins the serialized format (any layout
 * change must bump kFormatVersion).
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
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

namespace
{

using namespace mtfpu;

/** Fresh empty scratch directory under the system temp root. */
std::string
scratchDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / ("mtfpu-" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

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
 * The campaign @p cfg describes, simulated without runCampaign: every
 * trial rebuilt from scratch (the kernel's program and memory image,
 * its plan, lockstep and cycle guard) and run through SimDriver.
 */
faults::CampaignResult
fromScratchCampaign(const std::vector<kernels::Kernel> &kernel_list,
                    const faults::CampaignConfig &cfg)
{
    faults::CampaignResult ref;
    const machine::SimDriver driver(cfg.threads);
    for (size_t k = 0; k < kernel_list.size(); ++k) {
        const kernels::Kernel &kernel = kernel_list[k];
        std::vector<double> sums(cfg.faultsPerKernel + 1, 0.0);
        machine::SimJob golden;
        golden.name = kernel.name;
        golden.program = kernel.program;
        golden.config = cfg.machine;
        golden.memInit =
            kernels::memImage(kernel.init, cfg.machine.memory.memBytes);
        const auto checksumInto = [&](size_t j) {
            return [&sums, j,
                    checksum = kernel.checksum](machine::Machine &m) {
                const machine::RunStats stats = m.run();
                sums[j] = checksum(m.mem());
                return stats;
            };
        };
        golden.body = checksumInto(0);
        const machine::SimJobResult g = driver.runAttempt(golden);
        EXPECT_TRUE(g.ok) << g.error;
        ref.kernels.push_back(kernel.name);
        ref.goldenChecksums.push_back(sums[0]);
        ref.goldenCycles.push_back(g.stats.cycles);

        std::vector<machine::SimJob> jobs;
        for (unsigned i = 0; i < cfg.faultsPerKernel; ++i) {
            faults::FaultTrial trial;
            trial.kernel = kernel.name;
            trial.seed = faults::campaignTrialSeed(cfg.seed, k, i);
            trial.plan =
                faults::FaultPlan::randomSingle(trial.seed, g.stats.cycles);
            machine::SimJob job = golden;
            job.config.maxCycles = g.stats.cycles * cfg.guardFactor + 10000;
            job.faultPlan = trial.plan;
            job.lockstep = cfg.lockstep;
            job.body = checksumInto(i + 1);
            jobs.push_back(std::move(job));
            ref.trials.push_back(std::move(trial));
        }
        const std::vector<machine::SimJobResult> res = driver.run(jobs);
        for (unsigned i = 0; i < cfg.faultsPerKernel; ++i) {
            faults::FaultTrial &trial =
                ref.trials[ref.trials.size() - cfg.faultsPerKernel + i];
            const machine::SimJobResult &r = res[i];
            trial.cycles = r.stats.cycles;
            trial.errorCode = r.errorCode;
            if (r.ok) {
                const bool same = std::bit_cast<uint64_t>(sums[i + 1]) ==
                                  std::bit_cast<uint64_t>(sums[0]);
                trial.outcome = same ? faults::FaultOutcome::Masked
                                     : faults::FaultOutcome::Sdc;
            } else if (r.errorCode == "lockstep-divergence") {
                trial.outcome = faults::FaultOutcome::DetectedLockstep;
            } else {
                trial.outcome = faults::FaultOutcome::DetectedHardware;
            }
        }
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

TEST(CampaignSnapshot, JournalResumeMatchesUninterrupted)
{
    const std::string dir = scratchDir("campaign-journal");
    const auto kernels = campaignKernels();
    faults::CampaignConfig cfg = campaignConfig();

    const faults::CampaignResult ref = faults::runCampaign(kernels, cfg);

    // Full journaled run: identical trials, one journal line each.
    cfg.journalPath = dir + "/journal.jsonl";
    const faults::CampaignResult journaled =
        faults::runCampaign(kernels, cfg);
    expectSameTrials(ref, journaled);

    // Simulate a SIGKILL: keep only the first 3 trial lines and a
    // torn partial line, then rerun over the damaged journal. The
    // survivors are skipped, the rest resimulated, and the combined
    // classification matches the uninterrupted run exactly.
    std::string text;
    {
        std::FILE *f = std::fopen(cfg.journalPath.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    size_t cut = 0;
    for (int lines = 0; lines < 3; ++lines)
        cut = text.find('\n', cut) + 1;
    {
        std::FILE *f = std::fopen(cfg.journalPath.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(text.data(), 1, cut, f);
        std::fputs("{\"kernel\": \"lfk01\", \"seed\"", f); // torn line
        std::fclose(f);
    }

    const faults::CampaignResult resumed =
        faults::runCampaign(kernels, cfg);
    expectSameTrials(ref, resumed);

    // After the resume, the journal records every trial exactly once
    // under its exact 64-bit seed; only the torn line stays dead.
    text.clear();
    {
        std::FILE *f = std::fopen(cfg.journalPath.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::set<std::pair<std::string, uint64_t>> recorded;
    for (size_t start = 0; start < text.size();) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        try {
            const json::Value v = json::parse(line);
            recorded.emplace(v.at("kernel").asString(),
                             v.at("seed").asUint());
        } catch (const SimError &) {
            // the deliberately torn line
        }
    }
    EXPECT_EQ(recorded.size(), ref.trials.size());
    for (const faults::FaultTrial &t : ref.trials)
        EXPECT_TRUE(recorded.count({t.kernel, t.seed}))
            << t.kernel << " seed " << t.seed;
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
                     softfp::backendName(pause.backend));
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
