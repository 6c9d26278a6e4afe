#include "kernels/graphics/transform.hh"

#include "common/log.hh"
#include "softfp/fp64.hh"

namespace mtfpu::kernels::graphics
{

std::string
transformSource(bool load_matrix)
{
    std::string src;
    if (load_matrix) {
        // 16 scalar loads, one per cycle (Figure 9 folded strides).
        for (int i = 0; i < 16; ++i) {
            src += "ldf f" + std::to_string(i) + ", " +
                   std::to_string(64 + 8 * i) + "(r1)\n";
        }
    }
    src += R"(
        ldf f32, 0(r1)
        fmul f16, f32, f0, vl=4, srb
        ldf f33, 8(r1)
        fmul f20, f33, f4, vl=4, srb
        ldf f34, 16(r1)
        fmul f24, f34, f8, vl=4, srb
        ldf f35, 24(r1)
        fmul f28, f35, f12, vl=4, srb
        fadd f16, f16, f20, vl=4, sra, srb
        fadd f24, f24, f28, vl=4, sra, srb
        fadd f36, f16, f24, vl=4, sra, srb
        stf f36, 32(r1)
        stf f37, 40(r1)
        stf f38, 48(r1)
        stf f39, 56(r1)
        halt
    )";
    return src;
}

std::array<double, 4>
referenceTransform(const std::array<double, 16> &matrix,
                   const std::array<double, 4> &point)
{
    // With column c of the row-major input matrix living in register
    // group c, the routine computes out = A * p; the addition tree is
    // (p0*a + p1*b) + (p2*c + p3*d), matching the Figure 13 code.
    std::array<double, 4> out{};
    for (int k = 0; k < 4; ++k) {
        out[k] = (point[0] * matrix[k * 4 + 0] +
                  point[1] * matrix[k * 4 + 1]) +
                 (point[2] * matrix[k * 4 + 2] +
                  point[3] * matrix[k * 4 + 3]);
    }
    return out;
}

machine::SimJob
makeTransformJob(const machine::MachineConfig &config, bool load_matrix,
                 const std::array<double, 16> &matrix,
                 const std::array<double, 4> &point,
                 TransformResult &out)
{
    constexpr uint64_t base = 0x4000;

    machine::SimJob job;
    job.name = load_matrix ? "transform (load matrix)"
                           : "transform (matrix preloaded)";
    job.config = config;
    job.program = assembler::assemble(transformSource(load_matrix));
    job.cpuRegInit = {{1, base}};
    for (int i = 0; i < 4; ++i)
        job.memInit.emplace_back(base + 8 * i, softfp::fromDouble(point[i]));
    // Column c of the matrix occupies register group c*4..c*4+3; in
    // memory the matrix image is stored column-major at base+64.
    for (int c = 0; c < 4; ++c) {
        for (int r = 0; r < 4; ++r) {
            const uint64_t v = softfp::fromDouble(matrix[r * 4 + c]);
            job.memInit.emplace_back(base + 64 + 8 * (c * 4 + r), v);
            if (!load_matrix)
                job.fpuRegInit.emplace_back(c * 4 + r, v);
        }
    }
    job.body = [&out, cycle_ns = config.cycleNs](machine::Machine &m) {
        const machine::RunStats stats = m.run();
        out.cycles = stats.cycles;
        out.mflops = stats.mflops(28.0, cycle_ns);
        for (int k = 0; k < 4; ++k)
            out.out[k] = m.mem().readDouble(base + 32 + 8 * k);
        return stats;
    };
    return job;
}

TransformResult
runTransform(const machine::MachineConfig &config, bool load_matrix,
             const std::array<double, 16> &matrix,
             const std::array<double, 4> &point)
{
    TransformResult result;
    std::vector<machine::SimJob> jobs;
    jobs.push_back(
        makeTransformJob(config, load_matrix, matrix, point, result));
    const auto results = machine::SimDriver(1).run(jobs);
    if (!results[0].ok)
        fatal(results[0].error);
    return result;
}

} // namespace mtfpu::kernels::graphics
