#include "common/stats.hh"

#include <cmath>

#include "common/log.hh"

namespace mtfpu
{

double
harmonicMean(const std::vector<double> &rates)
{
    if (rates.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (double r : rates) {
        if (r <= 0.0)
            fatal("harmonicMean: rates must be positive");
        inv_sum += 1.0 / r;
    }
    return static_cast<double>(rates.size()) / inv_sum;
}

double
relativeError(double a, double b)
{
    if (a == b)
        return 0.0;
    const double denom = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) / denom;
}

} // namespace mtfpu
