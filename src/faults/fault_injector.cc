#include "faults/fault_injector.hh"

#include "isa/cpu_instr.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::faults
{

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void
FaultInjector::onCycleStart(uint64_t cycle, machine::Machine &machine)
{
    while (next_ < plan_.size() &&
           plan_.faults()[next_].cycle <= cycle) {
        apply(plan_.faults()[next_], machine);
        ++next_;
    }
}

void
FaultInjector::apply(const Fault &fault, machine::Machine &machine)
{
    switch (fault.site) {
      case FaultSite::FpuReg: {
        const unsigned reg =
            static_cast<unsigned>(fault.index % isa::kNumFpuRegs);
        fpu::RegisterFile &regs = machine.fpu().regs();
        regs.write(reg, regs.read(reg) ^ fault.mask);
        break;
      }
      case FaultSite::CpuReg: {
        // r0 is architecturally zero; strike r1..r31.
        const unsigned reg =
            1 + static_cast<unsigned>(fault.index % (isa::kNumIntRegs - 1));
        cpu::Cpu &cpu = machine.cpu();
        cpu.writeReg(reg, cpu.readReg(reg) ^ fault.mask);
        break;
      }
      case FaultSite::CacheLine: {
        memory::DirectMappedCache &cache =
            machine.memorySystem().dataCache();
        cache.corruptLine(fault.index % cache.numLines(), fault.mask >> 1,
                          fault.mask & 1);
        break;
      }
      case FaultSite::MemWord: {
        memory::MainMemory &mem = machine.mem();
        const uint64_t addr = (fault.index % (mem.size() / 8)) * 8;
        mem.write64(addr, mem.read64(addr) ^ fault.mask);
        break;
      }
      case FaultSite::SoftfpResult:
        machine.fpu().armElementCorruption(fault.mask, 0);
        break;
      case FaultSite::SoftfpFlags:
        machine.fpu().armElementCorruption(
            0, static_cast<uint8_t>(fault.mask & 0x1f));
        break;
    }
}

} // namespace mtfpu::faults
