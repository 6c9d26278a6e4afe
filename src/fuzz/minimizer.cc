#include "fuzz/minimizer.hh"

namespace mtfpu::fuzz
{

namespace
{

using Oracle = std::function<bool(const FuzzProgram &)>;

/** Rebuild a candidate with @p code (final halt re-appended). */
FuzzProgram
withCode(const FuzzProgram &base, std::vector<isa::Instr> code,
         const isa::Instr &last)
{
    FuzzProgram p;
    p.code = std::move(code);
    p.code.push_back(last);
    p.memInit = base.memInit;
    return p;
}

/**
 * One ddmin pass over a sequence: repeatedly try dropping chunks,
 * halving the chunk size when no chunk can be dropped. @p probe
 * builds a candidate with the reduced sequence and consults the
 * oracle; the sequence is updated in place on success.
 */
template <typename T, typename Probe>
void
ddmin(std::vector<T> &items, unsigned budget, MinimizeStats &stats,
      const Probe &probe)
{
    size_t chunk = items.empty() ? 0 : (items.size() + 1) / 2;
    while (chunk >= 1 && !items.empty()) {
        bool reduced = false;
        for (size_t start = 0; start < items.size();) {
            if (stats.probes >= budget)
                return;
            std::vector<T> candidate;
            candidate.reserve(items.size());
            const size_t end = std::min(items.size(), start + chunk);
            candidate.insert(candidate.end(), items.begin(),
                             items.begin() + start);
            candidate.insert(candidate.end(), items.begin() + end,
                             items.end());
            ++stats.probes;
            if (probe(candidate)) {
                items = std::move(candidate);
                ++stats.kept;
                reduced = true;
                // Retry at the same position: the next chunk slid in.
            } else {
                start += chunk;
            }
        }
        // Halve only when a full pass removed nothing; a productive
        // chunk-1 pass reruns until fixpoint (an accepted removal can
        // enable earlier ones).
        if (!reduced) {
            if (chunk == 1)
                break;
            chunk = (chunk + 1) / 2;
        }
    }
}

} // anonymous namespace

FuzzProgram
minimize(const FuzzProgram &failing, const Oracle &still_fails,
         unsigned budget, MinimizeStats *stats_out)
{
    MinimizeStats stats;
    FuzzProgram best = failing;
    if (best.code.empty())
        return best;

    // The final instruction (the generator's halt) is pinned so every
    // candidate terminates; everything before it is fair game.
    const isa::Instr last = best.code.back();
    std::vector<isa::Instr> body(best.code.begin(), best.code.end() - 1);

    ddmin(body, budget, stats, [&](const std::vector<isa::Instr> &cand) {
        return still_fails(withCode(best, cand, last));
    });
    best = withCode(best, body, last);

    // Shrink the memory image the same way.
    std::vector<std::pair<uint64_t, uint64_t>> mem = best.memInit;
    ddmin(mem, budget, stats,
          [&](const std::vector<std::pair<uint64_t, uint64_t>> &cand) {
              FuzzProgram p = best;
              p.memInit = cand;
              return still_fails(p);
          });
    best.memInit = std::move(mem);

    // Nop substitution: instructions that survive ddmin only because
    // removing them shifts branch displacements can still be
    // neutralized in place.
    const isa::Instr nop = isa::Instr::nop();
    for (size_t i = 0; i + 1 < best.code.size(); ++i) {
        if (best.code[i] == nop || stats.probes >= budget)
            continue;
        FuzzProgram p = best;
        p.code[i] = nop;
        ++stats.probes;
        if (still_fails(p)) {
            best = std::move(p);
            ++stats.kept;
        }
    }

    if (stats_out)
        *stats_out = stats;
    return best;
}

} // namespace mtfpu::fuzz
