/**
 * @file
 * Versioned machine snapshots (DESIGN.md §9). A snapshot captures a
 * simulation completely enough that restoring it into a fresh engine
 * and continuing produces bit-identical results to the uninterrupted
 * run: the program image, the full configuration, and the serialized
 * per-run state of every component — architectural (registers, PC,
 * PSW, memory) and microarchitectural (scoreboard, in-flight pipeline
 * entries, cache tags, stall bookkeeping, statistics counters).
 *
 * A snapshot lives in memory: the fault campaign pairs one mid-run
 * with a LockstepChecker's own saveState() (machine::JobStart) and
 * forks its trials from it. No shipped tool writes or reads a snapshot
 * file; a failed job is replayed from its JobSpec instead.
 *
 * The serialized form is little-endian binary: a "MTSN" magic, the
 * format version, the snapshot kind, the payload sections, and a
 * trailing CRC-32 over everything before it. deserialize() rejects
 * unknown magic/version/kind, CRC mismatches, and truncation with
 * structured SimError(ErrCode::BadSnapshot), so a torn or hostile blob
 * fails recoverably and never loads as garbage state. The kind byte is
 * always 0 (Machine): the format keeps the byte, and readers reject
 * any other value.
 *
 * Versioning rule: any change to the byte layout of the payload or to
 * a visit(Archive &) field list bumps kFormatVersion. Readers do not
 * migrate old versions but must detect them; the committed
 * golden-snapshot test pins the current layout.
 */

#ifndef MTFPU_SNAPSHOT_SNAPSHOT_HH
#define MTFPU_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <vector>

#include "assembler/assembler.hh"
#include "common/bytestream.hh"
#include "machine/config.hh"

namespace mtfpu::machine
{
class Machine;
} // namespace mtfpu::machine

namespace mtfpu::snapshot
{

/** Current on-disk format version (see the versioning rule above). */
constexpr uint32_t kFormatVersion = 1;

/** An in-memory snapshot: program + config + component state bytes. */
struct MachineSnapshot
{
    /** Full configuration. */
    machine::MachineConfig config;

    /** The program image. The label map is not preserved — snapshots
     *  restore mid-run state, past any label-based setup. */
    assembler::Program program;

    /** The machine's saveState() stream. */
    std::vector<uint8_t> state;
};

/** Capture the complete state of @p m. */
MachineSnapshot capture(const machine::Machine &m);

/**
 * Restore @p snap into @p m: reload the program (resetting the
 * machine) and overwrite all per-run state. The machine must have
 * been constructed with the snapshot's configuration — a mismatch is
 * ErrCode::BadSnapshot, since timing state is only meaningful under
 * the configuration that produced it.
 */
void restore(machine::Machine &m, const MachineSnapshot &snap);

/** Encode to the versioned, CRC-protected binary format. */
std::vector<uint8_t> serialize(const MachineSnapshot &snap);

/**
 * Decode a serialized snapshot; throws SimError(ErrCode::BadSnapshot)
 * on bad magic, unknown version/kind, truncation, or CRC mismatch.
 */
MachineSnapshot deserialize(const uint8_t *data, size_t size);
MachineSnapshot deserialize(const std::vector<uint8_t> &data);

} // namespace mtfpu::snapshot

#endif // MTFPU_SNAPSHOT_SNAPSHOT_HH
