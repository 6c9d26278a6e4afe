/**
 * @file
 * Small statistics helpers shared by the benchmark harnesses: harmonic
 * mean (the Livermore reporting convention) and relative-error checks.
 */

#ifndef MTFPU_COMMON_STATS_HH
#define MTFPU_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace mtfpu
{

/**
 * Harmonic mean of a set of rates. This is the aggregate the Livermore
 * Loops report (Figure 14 of the paper) because it weights each kernel
 * by equal work time rather than equal rate.
 *
 * @param rates Per-kernel rates (e.g. MFLOPS); all must be positive.
 * @return The harmonic mean, or 0 if @p rates is empty.
 */
double harmonicMean(const std::vector<double> &rates);

/**
 * Relative error |a - b| / max(|a|, |b|), with 0 when both are 0.
 * Used by kernel-validation tests comparing simulated results against
 * host-FP references.
 */
double relativeError(double a, double b);

} // namespace mtfpu

#endif // MTFPU_COMMON_STATS_HH
