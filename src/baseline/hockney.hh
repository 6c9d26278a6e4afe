/**
 * @file
 * Hockney's (n1/2, r_inf) characterization of vector machines
 * (paper §2.2, citing Hockney & Jesshope): a vector operation of
 * length n takes t(n) = (n + n1/2)/r_inf, so the achieved rate is
 * r(n) = r_inf * n/(n + n1/2). n1/2 is the vector length at which
 * half the peak rate is reached. The paper contrasts the MultiTitan's
 * n1/2 of about 4 with the Cray-1 (15), the CDC Cyber 205 (100), and
 * the ICL DAP (2048).
 */

#ifndef MTFPU_BASELINE_HOCKNEY_HH
#define MTFPU_BASELINE_HOCKNEY_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace mtfpu::baseline
{

/** One machine's vector-performance characterization. */
struct HockneyParams
{
    const char *name;
    double rInfMflops; // asymptotic rate
    double nHalf;      // half-performance vector length
};

/** Achieved MFLOPS at vector length @p n. */
double hockneyRate(const HockneyParams &params, double n);

/**
 * Fit (n1/2, r_inf) from measured (length, cycles) samples by least
 * squares on the linear model cycles = t0 + tau*n; then
 * n1/2 = t0/tau and r_inf = 1/tau (in results per cycle). Used to
 * measure the simulator's own n1/2 (§2.2.1).
 */
struct HockneyFit
{
    double nHalf;
    double resultsPerCycle; // asymptotic rate in results/cycle
};

HockneyFit fitHockney(
    const std::vector<std::pair<double, double>> &length_cycles);

/** The classical machines the paper names for n1/2 context. */
const std::vector<HockneyParams> &classicalMachines();

} // namespace mtfpu::baseline

#endif // MTFPU_BASELINE_HOCKNEY_HH
