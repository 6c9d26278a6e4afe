/**
 * @file
 * Snapshot subsystem tests: the versioned binary container rejects
 * every class of damage (corruption, truncation, version skew, config
 * mismatch); a mid-run capture/restore continues bit-identically to
 * the uninterrupted run for every benchmark kernel under both softfp
 * backends; the SimDriver checkpoint path demonstrably resumes from a
 * seeded checkpoint and falls back cleanly from a torn one; the fault
 * campaign's snapshot-fork and journal-resume modes classify exactly
 * like the from-scratch sweep; and a committed golden snapshot pins
 * the on-disk format (any layout change must bump kFormatVersion).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "faults/campaign.hh"
#include "kernels/graphics/transform.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/interpreter.hh"
#include "machine/machine.hh"
#include "machine/sim_driver.hh"
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

    EXPECT_EQ(back.kind, snapshot::SnapshotKind::Machine);
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
// redirect, halted); the FPU's registers and scoreboard bits, then
// the functional units' count, the empty IR's flag byte and the
// load/store unit's count.
constexpr size_t kCpuPendingCount = isa::kNumIntRegs * 8;
constexpr size_t kFuCount =
    kCpuPendingCount + 4 + 10 + isa::kNumFpuRegs * 8 + 8;
constexpr size_t kLsuCount = kFuCount + 4 + 1;

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
    // Splice one in-flight op into the idle state. With no stage left
    // (remaining == 0) advance() would wrap it and it would never
    // retire; the run would spin to maxCycles.
    const auto withOp = [](uint32_t remaining) {
        snapshot::MachineSnapshot snap = idleSnapshot();
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

    // Kind confusion: a Machine snapshot is not an Interpreter one.
    machine::Interpreter interp;
    try {
        snapshot::restore(interp, snap);
        FAIL() << "restored a Machine snapshot into an Interpreter";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadSnapshot);
    }
}

TEST(SnapshotContainer, WriteFileReadFileRoundTrip)
{
    const std::string dir = scratchDir("snap-file");
    machine::Machine m = smallMachine();
    m.runUntil(9);
    const snapshot::MachineSnapshot snap = snapshot::capture(m);

    const std::string path = dir + "/state.snap";
    snapshot::writeFile(path, snap);
    const snapshot::MachineSnapshot back = snapshot::readFile(path);
    EXPECT_EQ(snapshot::serialize(back), snapshot::serialize(snap));
    // The atomic write leaves no temp file behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

/**
 * The core acceptance property, parameterized over any kernel: pause
 * a run at a deterministic pseudo-random mid cycle, round-trip the
 * machine through the serialized snapshot into a *fresh* machine, and
 * the continued run must be bit-identical to the uninterrupted one —
 * RunStats and complete final machine state (memory included).
 */
void
expectMidRunRoundTrip(const std::string &label,
                      const assembler::Program &program,
                      const std::function<void(machine::Machine &)> &setup,
                      const machine::MachineConfig &cfg)
{
    SCOPED_TRACE(label);

    machine::Machine a(cfg);
    a.loadProgram(program);
    if (setup)
        setup(a);
    const machine::RunStats ref = a.run();
    ASSERT_EQ(ref.status, machine::RunStatus::Ok);
    ASSERT_GT(ref.cycles, 0u);

    // FNV-1a over the label picks a stable arbitrary pause cycle in
    // [1, ref.cycles] — always inside the run, never past its end.
    uint64_t h = 1469598103934665603ull;
    for (const char c : label)
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    const uint64_t stop = 1 + h % ref.cycles;

    machine::Machine b(cfg);
    b.loadProgram(program);
    if (setup)
        setup(b);
    ASSERT_EQ(b.runUntil(stop).status, machine::RunStatus::Paused);

    const std::vector<uint8_t> bytes =
        snapshot::serialize(snapshot::capture(b));
    const snapshot::MachineSnapshot snap = snapshot::deserialize(bytes);

    machine::Machine c(cfg);
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
        expectMidRunRoundTrip(
            k.name + "/" + k.variant, k.program,
            [init = k.init](machine::Machine &m) { init(m.mem()); }, cfg);
    }

    // The §3.1 graphics transform (register-seeded setup, not just
    // memory): reuse the batch job's setup closure verbatim.
    const std::array<double, 16> matrix{2, 0, 0, 1, 0, 3, 0, 2,
                                        0, 0, 4, 3, 0, 0, 0, 1};
    const std::array<double, 4> point{1, 2, 3, 1};
    kernels::graphics::TransformResult out;
    const machine::SimJob job = kernels::graphics::makeTransformJob(
        cfg, true, matrix, point, out);
    expectMidRunRoundTrip("graphics/transform", job.program, job.setup,
                          cfg);
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
    // Many small runUntil slices (the checkpoint loop's shape) end in
    // the same stats as one uninterrupted run.
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

TEST(SnapshotInterpreter, MidRunRoundTrip)
{
    const assembler::Program program = assembler::assemble(R"(
            li    r1, 0
            li    r2, 10
            fadd  f4, f0, f0, vl=4
    loop:   add   r1, r1, r2
            subi  r2, r2, 1
            bne   r2, r0, loop
            nop
            st    r1, 256(r0)
            halt
    )");

    machine::Interpreter a;
    a.loadProgram(program);
    a.run();
    ASSERT_TRUE(a.halted());

    machine::Interpreter b;
    b.loadProgram(program);
    for (int i = 0; i < 9; ++i)
        b.step();
    ASSERT_FALSE(b.halted());

    const std::vector<uint8_t> bytes =
        snapshot::serialize(snapshot::capture(b));
    const snapshot::MachineSnapshot snap = snapshot::deserialize(bytes);
    ASSERT_EQ(snap.kind, snapshot::SnapshotKind::Interpreter);

    machine::Interpreter c(snap.config.memory.memBytes);
    snapshot::restore(c, snap);
    EXPECT_EQ(c.pc(), b.pc());
    for (int step = 0; !c.halted(); ++step) {
        ASSERT_LT(step, 1000) << "restored interpreter never halted";
        c.step();
    }

    EXPECT_EQ(c.mem().read64(256), a.mem().read64(256));
    EXPECT_EQ(c.fpElements(), a.fpElements());
    for (unsigned r = 0; r < isa::kNumIntRegs; ++r)
        EXPECT_EQ(c.intReg(r), a.intReg(r)) << "r" << r;
    for (unsigned r = 0; r < isa::kNumFpuRegs; ++r)
        EXPECT_EQ(c.fpReg(r), a.fpReg(r)) << "f" << r;
}

/**
 * A program whose cycle count depends on a memory flag it reads only
 * after a long delay loop: mem[512] == 0 halts immediately, nonzero
 * runs a second loop. A checkpoint seeded with the flag set proves
 * the driver really resumed from the file — a fresh run cannot tell.
 */
machine::SimJob
flagJob()
{
    machine::SimJob job;
    job.name = "checkpoint-flag";
    job.program = assembler::assemble(R"(
            li   r2, 400
    spin:   subi r2, r2, 1
            bne  r2, r0, spin
            nop
            ld   r1, 512(r0)
            nop
            beq  r1, r0, done
            nop
            li   r3, 200
    more:   subi r3, r3, 1
            bne  r3, r0, more
            nop
    done:   halt
    )");
    return job;
}

TEST(SimDriverCheckpoint, ResumesFromSeededCheckpoint)
{
    const std::string dir = scratchDir("ck-seeded");
    const machine::SimJob job = flagJob();

    // Reference: a fresh run sees flag == 0 and halts early.
    const auto fresh =
        machine::SimDriver(1).run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(fresh[0].ok) << fresh[0].error;
    const uint64_t freshCycles = fresh[0].stats.cycles;

    // Seed a checkpoint paused inside the delay loop, with the flag
    // raised only in the checkpoint's memory image.
    machine::Machine m(job.config);
    m.loadProgram(job.program);
    ASSERT_EQ(m.runUntil(30).status, machine::RunStatus::Paused);
    m.mem().write64(512, 1);
    const std::string path =
        dir + "/" + machine::SimDriver::checkpointFileName(job);
    snapshot::writeFile(path, snapshot::capture(m));

    machine::SimDriver driver(1);
    driver.setCheckpoint(dir, 1u << 20);
    const auto resumed =
        driver.run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(resumed[0].ok) << resumed[0].error;
    // The raised flag is only visible if the run restored the file.
    EXPECT_GT(resumed[0].stats.cycles, freshCycles);
    // A finished job deletes its checkpoint.
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SimDriverCheckpoint, TornCheckpointFallsBackToFreshRun)
{
    const std::string dir = scratchDir("ck-torn");
    const machine::SimJob job = flagJob();
    const auto fresh =
        machine::SimDriver(1).run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(fresh[0].ok) << fresh[0].error;

    const std::string path =
        dir + "/" + machine::SimDriver::checkpointFileName(job);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a snapshot", f);
    std::fclose(f);

    machine::SimDriver driver(1);
    driver.setCheckpoint(dir, 1u << 20);
    const auto resumed =
        driver.run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(resumed[0].ok) << resumed[0].error;
    EXPECT_TRUE(resumed[0].stats == fresh[0].stats);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SimDriverCheckpoint, CheckpointedRunIsBitIdentical)
{
    // A short interval forces many save/pause/resume slices within
    // one run; the result must not change, and no file survives.
    const std::string dir = scratchDir("ck-slices");
    const kernels::Kernel k = kernels::livermore::make(1, false);
    machine::SimJob job;
    job.name = k.name;
    job.program = k.program;
    job.memInit = kernels::memImage(k);
    ASSERT_TRUE(machine::SimDriver::isPure(job));

    const auto plain =
        machine::SimDriver(1).run(std::vector<machine::SimJob>{job});
    machine::SimDriver driver(1);
    driver.setCheckpoint(dir, 300);
    const auto sliced =
        driver.run(std::vector<machine::SimJob>{job});

    ASSERT_TRUE(plain[0].ok) << plain[0].error;
    ASSERT_TRUE(sliced[0].ok) << sliced[0].error;
    EXPECT_TRUE(sliced[0].stats == plain[0].stats);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + machine::SimDriver::checkpointFileName(job)));
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

TEST(CampaignSnapshot, ForkedCampaignClassifiesIdentically)
{
    const auto kernels = campaignKernels();
    faults::CampaignConfig cfg = campaignConfig();

    const faults::CampaignResult scratch =
        faults::runCampaign(kernels, cfg);
    cfg.fork = true;
    const faults::CampaignResult forked =
        faults::runCampaign(kernels, cfg);

    expectSameTrials(scratch, forked);
    EXPECT_EQ(forked.goldenChecksums, scratch.goldenChecksums);
    EXPECT_EQ(forked.goldenCycles, scratch.goldenCycles);
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
        snapshot::writeFile(path, snapshot::capture(m));
        GTEST_SKIP() << "golden snapshot regenerated at " << path;
    }

    // Byte-for-byte: today's serializer must reproduce the committed
    // file exactly, so any layout drift fails here instead of in a
    // user's checkpoint directory.
    const snapshot::MachineSnapshot golden = snapshot::readFile(path);
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
}

} // anonymous namespace
