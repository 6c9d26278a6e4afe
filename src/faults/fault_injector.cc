#include "faults/fault_injector.hh"

#include <cstdio>

#include "isa/cpu_instr.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::faults
{

namespace
{

std::string
logLine(uint64_t cycle, const char *site, const std::string &victim,
        uint64_t mask)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "@%llu %s %s ^0x%llx",
                  static_cast<unsigned long long>(cycle), site,
                  victim.c_str(), static_cast<unsigned long long>(mask));
    return buf;
}

} // anonymous namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void
FaultInjector::onCycleStart(uint64_t cycle, machine::Machine &machine)
{
    while (next_ < plan_.size() &&
           plan_.faults()[next_].cycle <= cycle) {
        log_.push_back(apply(plan_.faults()[next_], cycle, machine));
        ++next_;
    }
}

std::string
FaultInjector::apply(const Fault &fault, uint64_t cycle,
                     machine::Machine &machine)
{
    switch (fault.site) {
      case FaultSite::FpuReg: {
        const unsigned reg =
            static_cast<unsigned>(fault.index % isa::kNumFpuRegs);
        fpu::RegisterFile &regs = machine.fpu().regs();
        regs.write(reg, regs.read(reg) ^ fault.mask);
        return logLine(cycle, "fpu-reg", "f" + std::to_string(reg),
                       fault.mask);
      }
      case FaultSite::CpuReg: {
        // r0 is architecturally zero; strike r1..r31.
        const unsigned reg =
            1 + static_cast<unsigned>(fault.index % (isa::kNumIntRegs - 1));
        cpu::Cpu &cpu = machine.cpu();
        cpu.writeReg(reg, cpu.readReg(reg) ^ fault.mask);
        return logLine(cycle, "cpu-reg", "r" + std::to_string(reg),
                       fault.mask);
      }
      case FaultSite::CacheLine: {
        memory::DirectMappedCache &cache =
            machine.memorySystem().dataCache();
        const uint64_t line = fault.index % cache.numLines();
        cache.corruptLine(line, fault.mask >> 1, fault.mask & 1);
        return logLine(cycle, "cache-line", "line" + std::to_string(line),
                       fault.mask);
      }
      case FaultSite::MemWord: {
        memory::MainMemory &mem = machine.mem();
        const uint64_t addr = (fault.index % (mem.size() / 8)) * 8;
        mem.write64(addr, mem.read64(addr) ^ fault.mask);
        char victim[32];
        std::snprintf(victim, sizeof(victim), "mem[0x%llx]",
                      static_cast<unsigned long long>(addr));
        return logLine(cycle, "mem-word", victim, fault.mask);
      }
      case FaultSite::SoftfpResult:
        machine.fpu().armElementCorruption(fault.mask, 0);
        return logLine(cycle, "softfp-result", "next-element", fault.mask);
      case FaultSite::SoftfpFlags:
        machine.fpu().armElementCorruption(
            0, static_cast<uint8_t>(fault.mask & 0x1f));
        return logLine(cycle, "softfp-flags", "next-element",
                       fault.mask & 0x1f);
    }
    return logLine(cycle, "unknown", "?", fault.mask);
}

} // namespace mtfpu::faults
