#include "machine/lockstep.hh"

#include <string>

#include "common/json.hh"
#include "common/log.hh"
#include "isa/disasm.hh"

namespace mtfpu::machine
{

namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace

std::string
DivergenceReport::to_json() const
{
    json::Writer w;
    w.beginObject();
    w.key("where").value(where);
    w.key("cycle").value(cycle);
    w.key("instructions").value(instructions);
    if (where == "issue-pc") {
        w.key("machine_pc").value(machinePc);
        w.key("interp_pc").value(interpPc);
        w.key("disasm").value(disasm);
    }
    w.key("deltas").beginArray();
    for (const Delta &delta : deltas) {
        w.beginObject();
        w.key("what").value(delta.what);
        w.key("machine").value(hex(delta.machine));
        w.key("interp").value(hex(delta.interp));
        w.endObject();
    }
    w.endArray();
    w.key("deltas_dropped").value(deltasDropped);
    w.endObject();
    return w.str();
}

LockstepChecker::LockstepChecker(Machine &machine)
    : machine_(machine), interp_(machine.mem().size())
{
    // The shadow executes elements with the same softfp backend as
    // the cycle model, so the differential test covers whichever
    // backend the Machine is configured with.
    interp_.setBackend(machine.config().fpBackend);
}

void
LockstepChecker::arm()
{
    interp_.loadProgram(machine_.program());
    interp_.mem().copyFrom(machine_.mem());
    // A job's start image may preload registers before run() (e.g. a
    // graphics matrix in f0..f15); mirror them into the shadow.
    for (unsigned r = 1; r < isa::kNumIntRegs; ++r)
        interp_.setIntReg(r, machine_.cpu().readReg(r));
    for (unsigned r = 0; r < isa::kNumFpuRegs; ++r)
        interp_.setFpReg(r, machine_.fpu().regs().read(r));
    issues_ = 0;
    armed_ = true;
    diverged_ = false;
    report_ = DivergenceReport{};
}

void
LockstepChecker::diverge(DivergenceReport report)
{
    diverged_ = true;
    report_ = std::move(report);
    std::string what = "lockstep divergence (" + report_.where +
                       ") at cycle " + std::to_string(report_.cycle) +
                       " after " + std::to_string(report_.instructions) +
                       " instructions";
    if (report_.where == "issue-pc") {
        what += ": machine issued pc=" + std::to_string(report_.machinePc) +
                " (" + report_.disasm + ") but the interpreter is at pc=" +
                std::to_string(report_.interpPc);
    } else if (!report_.deltas.empty()) {
        const DivergenceReport::Delta &d = report_.deltas.front();
        what += ": first delta " + d.what + " machine=" + hex(d.machine) +
                " interpreter=" + hex(d.interp) + " (" +
                std::to_string(report_.deltas.size() +
                               report_.deltasDropped) +
                " total)";
    }
    ErrContext context;
    context.cycle = static_cast<int64_t>(report_.cycle);
    throw SimError(ErrCode::LockstepDivergence, what, context);
}

void
LockstepChecker::onCycle(uint64_t cycle)
{
    (void)cycle;
    // The first active cycle of a run happens after the program and
    // data image are in place but before any instruction issues —
    // the right moment to snapshot the shadow state.
    if (!armed_)
        arm();
}

void
LockstepChecker::onIssue(const exec::IssueEvent &event)
{
    if (!armed_)
        panic("LockstepChecker: issue before the run started");
    if (event.pc != interp_.pc()) {
        DivergenceReport report;
        report.where = "issue-pc";
        report.cycle = event.cycle;
        report.instructions = issues_;
        report.machinePc = event.pc;
        report.interpPc = interp_.pc();
        report.disasm = isa::disassemble(*event.instr);
        diverge(std::move(report));
    }
    interp_.step();
    ++issues_;
}

void
LockstepChecker::onRunEnd(uint64_t cycles)
{
    if (!armed_)
        return;
    compareFinalState(cycles);
    armed_ = false; // re-arm at the next run's first cycle
    ++runsVerified_;
}

void
LockstepChecker::visit(Archive &ar)
{
    ar.b(armed_);
    ar.u64(issues_);
    ar.u64(runsVerified_);
    if (ar.loading()) {
        diverged_ = false;
        report_ = DivergenceReport{};
    }
    if (armed_) {
        // The shadow's program is not serialized; reload it from the
        // bound machine before loading functional state over it.
        if (ar.loading())
            interp_.loadProgram(machine_.program());
        interp_.visit(ar);
    }
}

void
LockstepChecker::compareFinalState(uint64_t cycles)
{
    DivergenceReport report;
    report.where = "final-state";
    report.cycle = cycles;
    report.instructions = issues_;
    auto add = [&](const std::string &what, uint64_t have, uint64_t want) {
        if (report.deltas.size() < DivergenceReport::kMaxDeltas)
            report.deltas.push_back({what, have, want});
        else
            ++report.deltasDropped;
    };

    if (!interp_.halted())
        add("halted", 1, 0);

    for (unsigned r = 1; r < isa::kNumIntRegs; ++r) {
        const uint64_t have = machine_.cpu().readReg(r);
        const uint64_t want = interp_.intReg(r);
        if (have != want)
            add("r" + std::to_string(r), have, want);
    }

    for (unsigned r = 0; r < isa::kNumFpuRegs; ++r) {
        const uint64_t have = machine_.fpu().regs().read(r);
        const uint64_t want = interp_.fpReg(r);
        if (have != want)
            add("f" + std::to_string(r), have, want);
    }

    const uint64_t have_elems = machine_.fpu().stats().elementsIssued;
    if (have_elems != interp_.fpElements())
        add("fp-element-count", have_elems, interp_.fpElements());

    machine_.mem().forEachDifference(
        interp_.mem(), [&](uint64_t addr, uint64_t have, uint64_t want) {
            add("mem[0x" + hex(addr) + "]", have, want);
        });

    if (!report.deltas.empty() || report.deltasDropped)
        diverge(std::move(report));
}

} // namespace mtfpu::machine
