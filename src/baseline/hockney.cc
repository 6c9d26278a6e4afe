#include "baseline/hockney.hh"

#include "common/log.hh"

namespace mtfpu::baseline
{

double
hockneyRate(const HockneyParams &params, double n)
{
    if (n <= 0)
        return 0.0;
    return params.rInfMflops * n / (n + params.nHalf);
}

HockneyFit
fitHockney(const std::vector<std::pair<double, double>> &samples)
{
    if (samples.size() < 2)
        fatal("fitHockney: need at least two samples");
    // Least squares: cycles = t0 + tau*n.
    double sn = 0, sc = 0, snn = 0, snc = 0;
    const double m = static_cast<double>(samples.size());
    for (const auto &[n, c] : samples) {
        sn += n;
        sc += c;
        snn += n * n;
        snc += n * c;
    }
    const double denom = m * snn - sn * sn;
    if (denom == 0)
        fatal("fitHockney: degenerate samples");
    const double tau = (m * snc - sn * sc) / denom;
    const double t0 = (sc - tau * sn) / m;
    if (tau <= 0)
        fatal("fitHockney: non-positive asymptotic time per result");
    return HockneyFit{t0 / tau, 1.0 / tau};
}

const std::vector<HockneyParams> &
classicalMachines()
{
    // r_inf values are representative DP add/multiply pipelines; the
    // n1/2 values are the ones the paper quotes in §2.2.1.
    static const std::vector<HockneyParams> machines = {
        {"MultiTitan", 25.0, 4.0},
        {"Cray-1", 80.0, 15.0},
        {"CDC Cyber 205", 100.0, 100.0},
        {"ICL DAP", 16.0, 2048.0},
    };
    return machines;
}

} // namespace mtfpu::baseline
