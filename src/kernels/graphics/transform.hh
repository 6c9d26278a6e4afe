/**
 * @file
 * The §3.1 graphics transform: one 4-vector multiplied by a 4x4
 * transformation matrix held in f0..f15 (Figure 12 register
 * allocation), using four length-4 vector multiplies and a tree of
 * length-4 vector adds (Figure 13 code sequence). The paper reports a
 * 35-cycle latency and 20 MFLOPS with the matrix preloaded.
 */

#ifndef MTFPU_KERNELS_GRAPHICS_TRANSFORM_HH
#define MTFPU_KERNELS_GRAPHICS_TRANSFORM_HH

#include <array>
#include <string>

#include "machine/machine.hh"
#include "machine/sim_driver.hh"

namespace mtfpu::kernels::graphics
{

/** Result of one transform run. */
struct TransformResult
{
    uint64_t cycles = 0;
    double mflops = 0;
    std::array<double, 4> out{};
};

/** The Figure 13 assembly listing. */
std::string transformSource(bool load_matrix);

/**
 * Run the transform on @p machine_config.
 *
 * @param config Machine configuration (figures assume ideal memory).
 * @param load_matrix Load the matrix from memory first (the paper
 *        notes this costs an extra 16 cycles when not preloaded).
 * @param matrix Row-major 4x4 matrix.
 * @param point Input point.
 */
TransformResult runTransform(const machine::MachineConfig &config,
                             bool load_matrix,
                             const std::array<double, 16> &matrix,
                             const std::array<double, 4> &point);

/**
 * Batch-friendly form of runTransform: a SimJob that starts from the
 * point, the matrix and its base register as a declarative image, and
 * whose body fills @p out. @p out must outlive the SimDriver::run
 * call.
 */
machine::SimJob makeTransformJob(const machine::MachineConfig &config,
                                 bool load_matrix,
                                 const std::array<double, 16> &matrix,
                                 const std::array<double, 4> &point,
                                 TransformResult &out);

/** Host reference: result[k] = sum_c matrix[k][c] * point[c]. */
std::array<double, 4> referenceTransform(
    const std::array<double, 16> &matrix,
    const std::array<double, 4> &point);

} // namespace mtfpu::kernels::graphics

#endif // MTFPU_KERNELS_GRAPHICS_TRANSFORM_HH
