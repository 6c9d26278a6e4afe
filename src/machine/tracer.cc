#include "machine/tracer.hh"

#include <algorithm>
#include <cstdio>

#include "isa/disasm.hh"

namespace mtfpu::machine
{

void
Tracer::onIssue(const exec::IssueEvent &event)
{
    // FPU ALU issues render as a transfer of the whole (vector)
    // instruction; everything else as a plain CPU issue.
    if (event.instr->major == isa::Major::FpAlu)
        record(event.cycle, TraceKind::FpTransfer, event.instr->fp.toString());
    else
        record(event.cycle, TraceKind::CpuIssue, isa::disassemble(*event.instr));
}

void
Tracer::onElement(const exec::ElementEvent &event)
{
    record(event.cycle, TraceKind::FpElement,
           isa::fpElementText(event.op, event.rr, event.ra, event.rb),
           event.latency);
}

void
Tracer::onMemAccess(const exec::MemAccessEvent &event)
{
    // Only instruction-buffer misses appear in the paper's timing
    // diagrams; data-cache penalties show up as the global freeze.
    if (event.kind == exec::MemAccessKind::InstrFetch && event.penalty > 0)
        record(event.cycle, TraceKind::GlobalStall, "ifetch miss",
               event.penalty);
}

std::string
Tracer::renderLog(size_t last) const
{
    std::string out;
    char buf[160];
    const size_t first = events_.size() > last ? events_.size() - last : 0;
    for (size_t i = first; i < events_.size(); ++i) {
        const TraceEvent &e = events_[i];
        const char *kind = "?";
        switch (e.kind) {
          case TraceKind::CpuIssue: kind = "cpu  "; break;
          case TraceKind::FpTransfer: kind = "xfer "; break;
          case TraceKind::FpElement: kind = "elem "; break;
          case TraceKind::GlobalStall: kind = "stall"; break;
        }
        std::snprintf(buf, sizeof(buf), "%6llu  %s %s\n",
                      static_cast<unsigned long long>(e.cycle), kind,
                      e.text.c_str());
        out += buf;
    }
    return out;
}

std::string
Tracer::renderTimeline() const
{
    // Rows: FPU elements, in issue order. An element issued at cycle
    // c with latency l writes back at c + l.
    struct Row
    {
        std::string label;
        uint64_t issue;
        uint64_t complete;
    };
    std::vector<Row> rows;
    uint64_t max_cycle = 0;

    for (const TraceEvent &e : events_) {
        max_cycle = std::max(max_cycle, e.cycle);
        if (e.kind == TraceKind::FpElement)
            rows.push_back(Row{e.text, e.cycle, e.cycle + e.extra});
    }
    for (const Row &r : rows)
        max_cycle = std::max(max_cycle, r.complete);

    size_t label_w = 8;
    for (const Row &r : rows)
        label_w = std::max(label_w, r.label.size());

    std::string out;
    // Cycle header (mod-10 digits to keep it compact).
    out.append(label_w + 2, ' ');
    for (uint64_t c = 0; c <= max_cycle; ++c)
        out += static_cast<char>('0' + (c % 10));
    out += '\n';

    for (const Row &r : rows) {
        out += r.label;
        out.append(label_w - r.label.size() + 2, ' ');
        for (uint64_t c = 0; c <= max_cycle; ++c) {
            if (c == r.issue)
                out += 'I';
            else if (c == r.complete)
                out += 'W';
            else if (c > r.issue && c < r.complete)
                out += '=';
            else
                out += '.';
        }
        out += '\n';
    }
    return out;
}

} // namespace mtfpu::machine
