/**
 * @file
 * Per-layer probes for traced runs. Layers reached only inside a
 * library call are measured by replaying their public API outside it,
 * on inputs taken from the running workload:
 *
 *  - an untimed capture pass runs each of the workload's kernels under
 *    an ExecObserver and records the FPALU instructions it issues, the
 *    data and instruction addresses it touches, and the normal values
 *    its elements retire;
 *  - the fpu probe feeds the captured FPALU stream through a bare
 *    fpu::Fpu whose registers hold captured normal values; the memory
 *    probe replays the address streams through a fresh MemorySystem;
 *  - the softfp harness chains each operation's result into the next
 *    call over an operand pool built from the captured values, scaled
 *    so every operand and result stays normal (checked), which keeps
 *    the host-fast backend on its fast path and stops the compiler
 *    from hoisting the call;
 *  - the remaining probes time Machine load/reset, the Interpreter,
 *    the lockstep checker, snapshots, kernel init/validation, a
 *    SimDriver batch, the fault-campaign golden phase, JobSpec
 *    parse/resolve, the ResultCache, one job through a WorkerPool,
 *    worker spawn, and journal appends.
 *
 * Each probe reports a median over repetitions, in ns or us per unit,
 * so probes compose with the end-to-end numbers.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/bytestream.hh"
#include "common/stats.hh"
#include "exec/observer.hh"
#include "faults/campaign.hh"
#include "fpu/fpu.hh"
#include "machine/interpreter.hh"
#include "machine/lockstep.hh"
#include "machine/machine.hh"
#include "machine/result_cache.hh"
#include "machine/sim_driver.hh"
#include "memory/memory_system.hh"
#include "snapshot/snapshot.hh"
#include "softfp/backend.hh"
#include "softfp/fp64.hh"
#include "service/supervisor.hh"
#include "service/worker_pool.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mtfpu;

namespace
{

constexpr size_t kMaxFpInstrs = 50000;
constexpr size_t kMaxAccesses = 400000;
constexpr size_t kMaxNormals = 4096;

/** What one kernel run exposes to the replay probes. */
struct RunCapture : exec::ExecObserver
{
    std::vector<isa::FpuAluInstr> fp;
    std::vector<std::pair<uint64_t, bool>> data; // address, is write
    std::vector<uint64_t> fetch;
    std::vector<uint64_t> normals;

    void
    onIssue(const exec::IssueEvent &e) override
    {
        if (e.instr->major == isa::Major::FpAlu && fp.size() < kMaxFpInstrs)
            fp.push_back(e.instr->fp);
    }

    void
    onMemAccess(const exec::MemAccessEvent &e) override
    {
        if (e.kind == exec::MemAccessKind::InstrFetch) {
            if (fetch.size() < kMaxAccesses)
                fetch.push_back(e.addr);
        } else if (data.size() < kMaxAccesses) {
            data.emplace_back(e.addr, e.kind == exec::MemAccessKind::Store ||
                                          e.kind == exec::MemAccessKind::FpStore);
        }
    }

    void
    onRetire(const exec::RetireEvent &e) override
    {
        if (normals.size() < kMaxNormals &&
            softfp::classify(e.value) == softfp::FpClass::Normal)
            normals.push_back(e.value);
    }
};

double
timeIt(const std::function<void()> &fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return since(t0);
}

/** Median of @p reps timings of @p fn, in seconds. */
double
medianTime(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i)
        t.push_back(timeIt(fn));
    return median(t);
}

/** A machine with @p k loaded and initialised under @p cfg. */
std::unique_ptr<machine::Machine>
loaded(const kernels::Kernel &k, const machine::MachineConfig &cfg)
{
    auto m = std::make_unique<machine::Machine>(cfg);
    m->loadProgram(k.program);
    k.init(m->mem());
    return m;
}

/**
 * Operand pool from captured values: each value keeps its sign and
 * significand, with its exponent folded into [-2, 1], so chained adds
 * around 16 and chained multiplies by x then 1/x never leave the
 * normal range.
 */
std::vector<uint64_t>
operandPool(const std::vector<uint64_t> &captured)
{
    std::vector<uint64_t> pool;
    for (uint64_t v : captured) {
        const uint64_t exp = (v >> softfp::kFracBits) & 0x7ff;
        const uint64_t folded = softfp::kExpBias - 2 + exp % 4;
        pool.push_back((v & (softfp::kSignBit | softfp::kFracMask)) |
                       (folded << softfp::kFracBits));
    }
    std::mt19937_64 rng(42);
    while (pool.size() < 256) // too few captured values: seeded fill
        pool.push_back(softfp::fromDouble(
            std::uniform_real_distribution<double>(0.25, 4.0)(rng)));
    return pool;
}

using BinOp = uint64_t (*)(uint64_t, uint64_t, softfp::Flags &);

/**
 * ns per call of @p op over @p calls chained calls: a = op(a, x) then
 * a = op(a, y) for each pool pair (x, y), where y undoes x. With
 * @p check set, instead verifies every result is normal (returns -1 on
 * the first that is not).
 */
double
chain(BinOp op, const std::vector<uint64_t> &xs,
      const std::vector<uint64_t> &ys, uint64_t start, size_t calls,
      bool check)
{
    softfp::Flags flags;
    uint64_t a = start;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0, n = xs.size(); i < calls / 2; ++i) {
        a = op(a, xs[i % n], flags);
        if (check && softfp::classify(a) != softfp::FpClass::Normal)
            return -1;
        a = op(a, ys[i % n], flags);
        if (check && softfp::classify(a) != softfp::FpClass::Normal)
            return -1;
    }
    const double t = since(t0);
    // The final value is data-dependent on every call; publishing it
    // keeps the whole chain live.
    keep(a);
    return 1e9 * t / static_cast<double>(calls);
}

void
softfpHarness(const std::vector<uint64_t> &captured, Report &report)
{
    const std::vector<uint64_t> pool = operandPool(captured);
    std::vector<uint64_t> neg, inv;
    for (uint64_t x : pool) {
        neg.push_back(x ^ softfp::kSignBit);
        inv.push_back(softfp::fromDouble(1.0 / softfp::asDouble(x)));
    }
    const uint64_t sixteen = softfp::fromDouble(16.0);
    const uint64_t one = softfp::fromDouble(1.0);
    struct Row
    {
        const char *name;
        BinOp op;
        const std::vector<uint64_t> *undo;
        uint64_t start;
        size_t calls;
    };
    const Row rows[] = {
        {"softfp.host.add_ns", softfp::fpAddHost, &neg, sixteen, 2'000'000},
        {"softfp.host.mul_ns", softfp::fpMulHost, &inv, one, 2'000'000},
        {"softfp.soft.add_ns", softfp::fpAdd, &neg, sixteen, 1'000'000},
        {"softfp.soft.mul_ns", softfp::fpMul, &inv, one, 1'000'000},
        {"softfp.soft.divide_ns", softfp::fpDivide, &inv, one, 200'000},
    };
    for (const Row &r : rows) {
        const bool normal =
            chain(r.op, pool, *r.undo, r.start, r.calls, true) >= 0;
        report.tally.check(normal, std::string(r.name) +
                                       ": operand chain left the normal range");
        std::vector<double> ns;
        for (int rep = 0; rep < 5; ++rep)
            ns.push_back(chain(r.op, pool, *r.undo, r.start, r.calls, false));
        report.setIfAbsent(r.name, median(ns), "ns");
    }
}

/** Drive a bare FPU through a captured FPALU stream; returns
 *  (seconds, elements issued). */
std::pair<double, uint64_t>
fpuReplay(const RunCapture &cap, const machine::MachineConfig &cfg,
          const std::vector<uint64_t> &pool)
{
    fpu::Fpu f(cfg.fpuLatency, cfg.fpBackend);
    const auto seed = [&] {
        for (unsigned r = 0; r < isa::kNumFpuRegs; ++r)
            f.regs().write(r, pool[r % pool.size()]);
    };
    seed();
    uint64_t elements = 0;
    size_t next = 0;
    const size_t cap_cycles = 64 * cap.fp.size() + 1000;
    size_t cycles = 0;
    const Clock::time_point t0 = Clock::now();
    while ((next < cap.fp.size() || f.aluIrBusy() || f.busy()) &&
           cycles++ < cap_cycles) {
        f.beginCycle();
        elements += f.tryIssueElement().issued;
        if (next < cap.fp.size() && f.canTransferAlu()) {
            // Re-seed now and then so chained results stay normal.
            if (next % 256 == 255)
                seed();
            f.transferAlu(cap.fp[next++]);
            elements += f.tryIssueElement().issued;
        }
    }
    return {since(t0), elements};
}

/** Replay data accesses through a fresh hierarchy; @p twice repeats
 *  each access back to back (the repeat always hits). */
std::pair<double, uint64_t>
dataReplay(const RunCapture &cap, const memory::MemoryConfig &cfg, bool twice)
{
    memory::MemorySystem ms(cfg);
    uint64_t misses = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto &[addr, write] : cap.data) {
        misses += ms.dataAccess(addr, write) != 0;
        if (twice)
            ms.dataAccess(addr, write);
    }
    return {since(t0), misses};
}

double
fetchReplay(const RunCapture &cap, const memory::MemoryConfig &cfg)
{
    memory::MemorySystem ms(cfg);
    unsigned sum = 0;
    const double t = timeIt([&] {
        for (uint64_t addr : cap.fetch)
            sum += ms.instrFetch(addr);
    });
    keep(sum);
    return t;
}

void
probeReplays(const ProbeInputs &in, const std::vector<RunCapture> &caps,
             Report &report)
{
    std::vector<uint64_t> normals;
    for (const RunCapture &c : caps)
        normals.insert(normals.end(), c.normals.begin(), c.normals.end());
    const std::vector<uint64_t> pool = operandPool(normals);
    softfpHarness(normals, report);

    double fpu_time = 0;
    uint64_t elements = 0;
    double t1 = 0, t2 = 0, fetch_time = 0;
    uint64_t accesses = 0, misses = 0, fetches = 0;
    for (size_t i = 0; i < caps.size(); ++i) {
        const machine::MachineConfig &cfg = in.runs[i].second;
        std::vector<double> ft, a1, a2, fe;
        uint64_t el = 0, mi = 0;
        for (int rep = 0; rep < 3; ++rep) {
            const auto [t, e] = fpuReplay(caps[i], cfg, pool);
            ft.push_back(t);
            el = e;
            const auto [d1, m] = dataReplay(caps[i], cfg.memory, false);
            a1.push_back(d1);
            mi = m;
            a2.push_back(dataReplay(caps[i], cfg.memory, true).first);
            fe.push_back(fetchReplay(caps[i], cfg.memory));
        }
        fpu_time += median(ft);
        elements += el;
        t1 += median(a1);
        t2 += median(a2);
        misses += mi;
        accesses += caps[i].data.size();
        fetch_time += median(fe);
        fetches += caps[i].fetch.size();
    }
    report.setIfAbsent("fpu.element_issue_ns",
                       1e9 * fpu_time / static_cast<double>(std::max<uint64_t>(elements, 1)),
                       "ns");
    const double hit_ns =
        1e9 * (t2 - t1) / static_cast<double>(std::max<uint64_t>(accesses, 1));
    report.setIfAbsent("memory.data_access.hit_ns", hit_ns, "ns");
    report.setIfAbsent(
        "memory.data_access.miss_ns",
        (1e9 * t1 - hit_ns * static_cast<double>(accesses - misses)) /
            static_cast<double>(std::max<uint64_t>(misses, 1)),
        "ns");
    report.setIfAbsent("memory.instr_fetch_ns",
                       1e9 * fetch_time /
                           static_cast<double>(std::max<uint64_t>(fetches, 1)),
                       "ns");

    // An idle FPU cycle: nothing in flight, ALU IR empty.
    fpu::Fpu idle;
    const size_t cycles = 2'000'000;
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        uint64_t issued = 0;
        const double t = timeIt([&] {
            for (size_t c = 0; c < cycles; ++c) {
                issued += idle.beginCycle().size();
                issued += idle.tryIssueElement().issued;
            }
        });
        keep(issued);
        ns.push_back(1e9 * t / static_cast<double>(cycles));
    }
    report.setIfAbsent("fpu.idle_cycle_ns", median(ns), "ns");
}

void
probeMachine(const ProbeInputs &in, Report &report)
{
    std::vector<double> load, reset, init, validate, snap_cap, snap_res,
        snap_ser, snap_des;
    double run_time[2] = {0, 0};
    uint64_t run_cycles[2] = {0, 0}, insts = 0;
    double plain = 0, lockstep = 0, interp_time = 0;
    uint64_t steps = 0, snap_bytes = 0;
    for (const auto &[kp, cfg] : in.runs) {
        const kernels::Kernel &k = *kp;
        machine::Machine m(cfg);
        load.push_back(medianTime(5, [&] { m.loadProgram(k.program); }));
        memory::MainMemory mem(cfg.memory.memBytes);
        init.push_back(medianTime(3, [&] { k.init(mem); }));
        validate.push_back(medianTime(3, [&] {
            keep(relativeError(k.checksum(mem), k.reference()) > 0);
        }));

        k.init(m.mem());
        machine::RunStats stats;
        const double t = timeIt([&] { stats = m.run(); });
        const int v = k.variant == "vector" ? 0 : 1;
        run_time[v] += t;
        run_cycles[v] += stats.cycles;
        insts += stats.instructionsIssued;
        plain += t;
        reset.push_back(medianTime(5, [&] { m.resetForRun(false); }));

        auto checked = loaded(k, cfg);
        machine::LockstepChecker checker(*checked);
        checked->addObserver(&checker);
        lockstep += timeIt([&] { checked->run(); });

        machine::Interpreter interp(cfg.memory.memBytes);
        interp.setBackend(cfg.fpBackend);
        interp.loadProgram(k.program);
        k.init(interp.mem());
        interp_time += timeIt([&] {
            while (!interp.halted()) {
                interp.step();
                ++steps;
            }
        });

        // A snapshot of the machine paused halfway through the kernel.
        auto paused = loaded(k, cfg);
        paused->runUntil(std::max<uint64_t>(stats.cycles / 2, 1));
        snapshot::MachineSnapshot snap;
        snap_cap.push_back(
            medianTime(5, [&] { snap = snapshot::capture(*paused); }));
        std::vector<uint8_t> bytes;
        snap_ser.push_back(
            medianTime(5, [&] { bytes = snapshot::serialize(snap); }));
        snap_bytes += bytes.size();
        snap_des.push_back(medianTime(
            5, [&] { snap = snapshot::deserialize(bytes); }));
        machine::Machine target(cfg);
        snap_res.push_back(
            medianTime(5, [&] { snapshot::restore(target, snap); }));
    }
    const auto us = [](const std::vector<double> &v) { return 1e6 * median(v); };
    report.setIfAbsent("machine.load_program_us", us(load), "us");
    report.setIfAbsent("machine.reset_us", us(reset), "us");
    report.setIfAbsent("kernels.init_us", us(init), "us");
    report.setIfAbsent("kernels.validate_us", us(validate), "us");
    // A probe set without one variant reuses the other's rate.
    const double ns_v = run_cycles[0] ? 1e9 * run_time[0] / run_cycles[0] : 0;
    const double ns_s = run_cycles[1] ? 1e9 * run_time[1] / run_cycles[1] : 0;
    report.setIfAbsent("machine.run.vector.ns_per_cycle", ns_v ? ns_v : ns_s,
                       "ns");
    report.setIfAbsent("machine.run.scalar.ns_per_cycle", ns_s ? ns_s : ns_v,
                       "ns");
    report.setIfAbsent("machine.run.ns_per_instruction",
                       1e9 * plain / static_cast<double>(std::max<uint64_t>(insts, 1)),
                       "ns");
    report.setIfAbsent("lockstep.overhead_frac", (lockstep - plain) / lockstep,
                       "ratio");
    report.setIfAbsent("interpreter.ns_per_step",
                       1e9 * interp_time / static_cast<double>(std::max<uint64_t>(steps, 1)),
                       "ns");
    report.setIfAbsent("snapshot.capture_us", us(snap_cap), "us");
    report.setIfAbsent("snapshot.restore_us", us(snap_res), "us");
    report.setIfAbsent("snapshot.serialize_us", us(snap_ser), "us");
    report.setIfAbsent("snapshot.deserialize_us", us(snap_des), "us");
    report.setIfAbsent("snapshot.bytes",
                       static_cast<double>(snap_bytes) /
                           static_cast<double>(std::max<size_t>(in.runs.size(), 1)),
                       "bytes");
}

/** A SimDriver batch of the probe kernels: batch wall time versus the
 *  Machine::run time inside it. */
void
probeDriver(const ProbeInputs &in, Report &report)
{
    std::vector<machine::SimJob> jobs;
    double run_time = 0;
    for (const auto &[kp, cfg] : in.runs) {
        machine::SimJob job;
        job.name = kernelKey(*kp);
        job.program = kp->program;
        job.config = cfg;
        job.body = [k = kp, &run_time](machine::Machine &m) {
            k->init(m.mem());
            machine::RunStats st;
            run_time += timeIt([&] { st = m.run(); });
            return st;
        };
        jobs.push_back(std::move(job));
    }
    const double wall = timeIt([&] { machine::SimDriver(1).run(jobs); });
    report.setIfAbsent("sim_driver.overhead_frac", (wall - run_time) / wall,
                       "ratio");
}

void
probeFaults(const ProbeInputs &in, Report &report)
{
    faults::CampaignConfig cfg;
    cfg.threads = 1;
    cfg.fork = true;
    cfg.faultsPerKernel = 0;
    const double nk = static_cast<double>(in.campaignKernels.size());
    const double golden =
        medianTime(3, [&] { faults::runCampaign(in.campaignKernels, cfg); });
    report.setIfAbsent("faults.golden_ms", 1e3 * golden / nk, "ms");
    cfg.faultsPerKernel = 4;
    const double with_trials =
        medianTime(3, [&] { faults::runCampaign(in.campaignKernels, cfg); });
    report.setIfAbsent("faults.trial_ms",
                       1e3 * (with_trials - golden) / (4 * nk), "ms");
}

} // anonymous namespace

void
probeSimulatorLayers(const ProbeInputs &inputs, Report &report)
{
    std::vector<RunCapture> caps(inputs.runs.size());
    CountSums counts;
    for (size_t i = 0; i < inputs.runs.size(); ++i) {
        auto m = loaded(*inputs.runs[i].first, inputs.runs[i].second);
        m->addObserver(&caps[i]);
        counts.add(m->run());
        m->removeObserver(&caps[i]);
    }
    counts.report(report);
    probeReplays(inputs, caps, report);
    probeMachine(inputs, report);
    probeDriver(inputs, report);
    probeFaults(inputs, report);
}

void
probeServiceLayers(const Options &opt, const ProbeInputs &inputs,
                   Report &report)
{
    std::vector<double> parse, resolve_kernel, resolve_fuzz, miss, store, hit;
    std::vector<machine::SimJob> resolved;
    for (const service::JobSpec &spec : inputs.specs) {
        const std::string text = spec.to_json();
        parse.push_back(medianTime(3, [&] { service::JobSpec::parse(text); }));
        machine::SimJob job;
        const double t = medianTime(3, [&] { job = spec.resolve(); });
        (spec.kind == service::JobKind::Kernel ? resolve_kernel : resolve_fuzz)
            .push_back(t);
        resolved.push_back(std::move(job));
    }
    const std::string cache_dir = opt.workDir + "/probe-cache";
    {
        machine::ResultCache cache(cache_dir);
        machine::RunStats stats;
        stats.cycles = 1;
        for (const machine::SimJob &job : resolved) {
            miss.push_back(timeIt([&] { cache.lookup(job); }));
            store.push_back(timeIt([&] { cache.store(job, stats); }));
            hit.push_back(timeIt([&] {
                report.tally.check(cache.lookup(job).has_value(),
                                   "result cache lost a stored entry");
            }));
        }
    }
    std::filesystem::remove_all(cache_dir);
    const auto us = [](const std::vector<double> &v) { return 1e6 * median(v); };
    report.set("job_spec.parse_us", us(parse), "us");
    report.set("job_spec.resolve.kernel_us", us(resolve_kernel), "us");
    report.set("job_spec.resolve.fuzz_us", us(resolve_fuzz), "us");
    report.set("result_cache.lookup_miss_us", us(miss), "us");
    report.set("result_cache.store_us", us(store), "us");
    report.set("result_cache.lookup_hit_us", us(hit), "us");

    // One job through a WorkerPool versus the same spec in process.
    service::WorkerPoolConfig pool_cfg;
    pool_cfg.workerPath = opt.binDir + "/mtfpu-workerd";
    pool_cfg.workers = 1;
    std::vector<double> spawn;
    for (int rep = 0; rep < 5; ++rep) {
        service::WorkerProcess w(pool_cfg);
        spawn.push_back(timeIt([&] {
            report.tally.check(w.spawn(), "worker failed to spawn");
        }));
        w.kill();
    }
    report.set("worker_pool.spawn_ms", 1e3 * median(spawn), "ms");
    std::vector<double> overhead;
    {
        service::WorkerPool pool(pool_cfg);
        const machine::SimDriver driver(1);
        for (size_t i = 0; i < inputs.specs.size() && i < 16; ++i) {
            service::PoolJob job;
            job.name = "probe";
            job.specJson = inputs.specs[i].to_json();
            service::PoolOutcome out;
            if (i == 0)
                pool.execute(job); // spawns the slot's worker
            const double pooled = timeIt([&] { out = pool.execute(job); });
            machine::SimJobResult local;
            const double inproc = timeIt([&] {
                local = driver.runAttempt(
                    service::JobSpec::parse(job.specJson).resolve());
            });
            report.tally.check(out.result.ok && local.ok &&
                                   out.result.stats == local.stats,
                               "pooled job differs from in-process run");
            overhead.push_back(pooled - inproc);
        }
        pool.stop();
    }
    report.set("worker_pool.overhead_ms", 1e3 * median(overhead), "ms");

    const std::string journal_path = opt.workDir + "/probe.journal";
    std::vector<double> append;
    {
        service::JobJournal journal(journal_path);
        const std::string spec = inputs.specs.front().to_json();
        for (uint64_t id = 1; id <= 200; ++id) {
            append.push_back(timeIt([&] { journal.accept(id, spec); }));
            append.push_back(timeIt([&] { journal.done(id); }));
        }
    }
    std::filesystem::remove(journal_path);
    report.set("journal.append_us", us(append), "us");
}

} // namespace perfbench
