#include "fpu/register_file.hh"

#include <cstring>
#include <string>

#include "common/log.hh"

namespace mtfpu::fpu
{

void
RegisterFile::rangeError(const char *access, unsigned reg)
{
    fatal(ErrCode::RegFileRange,
          std::string("RegisterFile: ") + access + " of f" +
              std::to_string(reg));
}

double
RegisterFile::readDouble(unsigned reg) const
{
    const uint64_t v = read(reg);
    double d;
    std::memcpy(&d, &v, sizeof(d));
    return d;
}

void
RegisterFile::writeDouble(unsigned reg, double value)
{
    uint64_t v;
    std::memcpy(&v, &value, sizeof(v));
    write(reg, v);
}

} // namespace mtfpu::fpu
