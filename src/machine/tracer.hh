/**
 * @file
 * Cycle-by-cycle trace collection and the timing-diagram renderer
 * used to regenerate the paper's Figure 5-8 pipeline diagrams.
 *
 * The Tracer is an ExecObserver: it subscribes to the Machine's event
 * stream (Machine::addObserver) rather than being wired into the
 * pipeline, so tracing composes freely with the other observers
 * (stats collection, lockstep checking).
 */

#ifndef MTFPU_MACHINE_TRACER_HH
#define MTFPU_MACHINE_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/observer.hh"

namespace mtfpu::machine
{

/** Kinds of trace events. */
enum class TraceKind
{
    CpuIssue,    // a CPU instruction issued
    FpTransfer,  // an FPU ALU instruction entered the ALU IR
    FpElement,   // a vector element issued (text shows the element)
    GlobalStall, // lock-step stall began (cache miss)
};

/** One event. */
struct TraceEvent
{
    uint64_t cycle;
    TraceKind kind;
    std::string text;
    uint64_t extra = 0; // stall length, or an element's latency
};

/** Event sink; attach to a Machine to record a run. */
class Tracer : public exec::ExecObserver
{
  public:
    void
    record(uint64_t cycle, TraceKind kind, std::string text,
           uint64_t extra = 0)
    {
        events_.push_back(TraceEvent{cycle, kind, std::move(text), extra});
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    void clear() { events_.clear(); }

    // --- ExecObserver hooks -------------------------------------------

    void onIssue(const exec::IssueEvent &event) override;
    void onElement(const exec::ElementEvent &event) override;
    void onMemAccess(const exec::MemAccessEvent &event) override;

    /**
     * Render a Figure 5-8 style timing diagram: one row per issued
     * FPU element, columns are cycles; 'I' marks the element's issue
     * cycle, 'W' its writeback (issue + latency), '=' the cycles
     * between and '.' the rest.
     */
    std::string renderTimeline() const;

    /** Render a flat cycle-ordered listing of the last @p last
     *  events (all of them by default). */
    std::string renderLog(size_t last = SIZE_MAX) const;

  private:
    std::vector<TraceEvent> events_;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_TRACER_HH
