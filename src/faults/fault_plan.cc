#include "faults/fault_plan.hh"

#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>

#include "common/log.hh"

namespace mtfpu::faults
{

std::string
Fault::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%llu %s %llu 0x%llx",
                  static_cast<unsigned long long>(cycle),
                  enumName(site),
                  static_cast<unsigned long long>(index),
                  static_cast<unsigned long long>(mask));
    return buf;
}

FaultPlan::FaultPlan(std::vector<Fault> faults) : faults_(std::move(faults))
{
    std::stable_sort(faults_.begin(), faults_.end(),
                     [](const Fault &a, const Fault &b) {
                         return a.cycle < b.cycle;
                     });
}

void
FaultPlan::add(const Fault &fault)
{
    auto pos = std::upper_bound(faults_.begin(), faults_.end(), fault,
                                [](const Fault &a, const Fault &b) {
                                    return a.cycle < b.cycle;
                                });
    faults_.insert(pos, fault);
}

FaultPlan
FaultPlan::randomSingle(uint64_t seed, uint64_t max_cycle)
{
    std::mt19937_64 rng(seed);
    Fault fault;
    fault.cycle = std::uniform_int_distribution<uint64_t>(0, max_cycle)(rng);
    fault.site = static_cast<FaultSite>(
        std::uniform_int_distribution<unsigned>(0, kNumFaultSites - 1)(rng));
    fault.index = rng();
    switch (fault.site) {
      case FaultSite::FpuReg:
      case FaultSite::CpuReg:
      case FaultSite::MemWord:
      case FaultSite::SoftfpResult:
        // Single-event upset: one flipped bit.
        fault.mask = 1ull
                     << std::uniform_int_distribution<unsigned>(0, 63)(rng);
        break;
      case FaultSite::SoftfpFlags:
        fault.mask = 1ull
                     << std::uniform_int_distribution<unsigned>(0, 4)(rng);
        break;
      case FaultSite::CacheLine:
        // Either a valid-bit flip (bit 0) or a single tag bit.
        if (std::uniform_int_distribution<unsigned>(0, 1)(rng)) {
            fault.mask = 1;
        } else {
            fault.mask =
                2ull << std::uniform_int_distribution<unsigned>(0, 20)(rng);
        }
        break;
    }
    return FaultPlan({fault});
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string cycle_s, site_s, index_s, mask_s;
        if (!(fields >> cycle_s))
            continue; // blank / comment-only line
        if (!(fields >> site_s >> index_s >> mask_s)) {
            fatal(ErrCode::BadOperand,
                  "fault plan line " + std::to_string(lineno) +
                      ": expected '<cycle> <site> <index> <mask>'");
        }
        std::string extra;
        if (fields >> extra) {
            fatal(ErrCode::BadOperand,
                  "fault plan line " + std::to_string(lineno) +
                      ": trailing junk '" + extra + "'");
        }
        const auto number = [&](const std::string &token, Digits digits) {
            if (const std::optional<uint64_t> v =
                    parseNumber<uint64_t>(token, digits))
                return *v;
            fatal(ErrCode::BadOperand,
                  "fault plan line " + std::to_string(lineno) +
                      ": bad number '" + token + "'");
        };
        Fault fault;
        fault.cycle = number(cycle_s, Digits::Decimal);
        fault.index = number(index_s, Digits::Decimal);
        fault.mask = number(mask_s, Digits::Hex);
        fault.site =
            parseEnum<FaultSite>(site_s, "fault site", ErrCode::BadOperand);
        plan.add(fault);
    }
    return plan;
}

std::string
FaultPlan::describe() const
{
    std::string out;
    for (const Fault &fault : faults_) {
        out += fault.describe();
        out += '\n';
    }
    return out;
}

} // namespace mtfpu::faults
