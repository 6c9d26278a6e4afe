/**
 * @file
 * Kernel descriptors: a benchmark kernel is a generated program, a
 * memory layout, a deterministic initializer, a useful-FLOP count
 * (the Livermore reporting convention), and a host-FP reference used
 * to validate the simulated results.
 */

#ifndef MTFPU_KERNELS_KERNEL_HH
#define MTFPU_KERNELS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "memory/main_memory.hh"

namespace mtfpu::kernels
{

/** Base address of kernel data segments. */
constexpr uint64_t kDataBase = 0x10000;

/** Named double arrays laid out consecutively in main memory. */
class Layout
{
  public:
    /** Define an array of @p doubles elements; returns its base. */
    uint64_t define(const std::string &name, size_t doubles);

    /** Base byte address of a defined array. */
    uint64_t base(const std::string &name) const;

    /** Byte address of element @p index. */
    uint64_t addr(const std::string &name, size_t index) const;

    /** Write @p values into the array (shorter vectors zero-fill). */
    void fill(memory::MainMemory &mem, const std::string &name,
              const std::vector<double> &values) const;

    /** Read the whole array back. */
    std::vector<double> read(const memory::MainMemory &mem,
                             const std::string &name) const;

  private:
    struct Array
    {
        uint64_t base;
        size_t size;
    };

    std::map<std::string, Array> arrays_;
    uint64_t next_ = kDataBase;
};

/** A runnable benchmark kernel. */
struct Kernel
{
    std::string name;    // e.g. "lfk01"
    std::string title;   // e.g. "hydro fragment"
    std::string variant; // "scalar" or "vector"
    assembler::Program program;
    Layout layout;
    /** Useful FLOPs per run (Livermore convention). */
    double flops = 0;
    /** Deterministic input initializer. */
    std::function<void(memory::MainMemory &)> init;
    /** Checksum of the kernel's outputs in simulated memory. */
    std::function<double(const memory::MainMemory &)> checksum;
    /** Host-FP reference value of the same checksum. */
    std::function<double()> reference;
    /** Relative tolerance for checksum validation (0 = bit exact). */
    double tolerance = 0.0;
};

} // namespace mtfpu::kernels

#endif // MTFPU_KERNELS_KERNEL_HH
