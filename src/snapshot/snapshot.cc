#include "snapshot/snapshot.hh"

#include "common/log.hh"
#include "machine/machine.hh"

namespace mtfpu::snapshot
{

namespace
{

constexpr char kMagic[4] = {'M', 'T', 'S', 'N'};

/** The container's kind byte: every snapshot holds a Machine. */
constexpr uint8_t kMachineKind = 0;

} // anonymous namespace

MachineSnapshot
capture(const machine::Machine &m)
{
    MachineSnapshot snap;
    snap.config = m.config();
    snap.program = m.program();
    ByteWriter state;
    m.saveState(state);
    snap.state = state.take();
    return snap;
}

void
restore(machine::Machine &m, const MachineSnapshot &snap)
{
    if (!(m.config() == snap.config))
        fatal(ErrCode::BadSnapshot,
              "snapshot: machine configuration does not match the "
              "snapshot's (timing state is only meaningful under the "
              "configuration that produced it)");
    m.loadProgram(snap.program);
    ByteReader in(snap.state);
    m.restoreState(in);
    if (!in.atEnd())
        fatal(ErrCode::BadSnapshot,
              "snapshot: trailing bytes after machine state");
}

std::vector<uint8_t>
serialize(const MachineSnapshot &snap)
{
    ByteWriter out;
    for (const char c : kMagic)
        out.u8(static_cast<uint8_t>(c));
    out.u32(kFormatVersion);
    out.u8(kMachineKind);
    Archive::save(out, snap.config);
    Archive::save(out, snap.program);
    out.bytes(snap.state.data(), snap.state.size());
    out.u32(crc32(out.data().data(), out.size()));
    return out.take();
}

MachineSnapshot
deserialize(const uint8_t *data, size_t size)
{
    // The trailing CRC-32 covers every byte before it; verify before
    // interpreting anything (a torn snapshot must never half-load).
    if (size < sizeof(kMagic) + sizeof(uint32_t))
        fatal(ErrCode::BadSnapshot, "snapshot: file too short");
    ByteReader crcReader(data + size - sizeof(uint32_t),
                         sizeof(uint32_t));
    const uint32_t stored = crcReader.u32();
    const uint32_t computed = crc32(data, size - sizeof(uint32_t));
    if (stored != computed)
        fatal(ErrCode::BadSnapshot,
              "snapshot: CRC mismatch (stored " + std::to_string(stored) +
                  ", computed " + std::to_string(computed) +
                  ") - truncated or corrupt file");

    ByteReader in(data, size - sizeof(uint32_t));
    for (const char c : kMagic) {
        if (in.u8() != static_cast<uint8_t>(c))
            fatal(ErrCode::BadSnapshot, "snapshot: bad magic");
    }
    const uint32_t version = in.u32();
    if (version != kFormatVersion)
        fatal(ErrCode::BadSnapshot,
              "snapshot: format version " + std::to_string(version) +
                  " (this build reads version " +
                  std::to_string(kFormatVersion) + ")");
    MachineSnapshot snap;
    const uint8_t kind = in.u8();
    if (kind != kMachineKind)
        fatal(ErrCode::BadSnapshot,
              "snapshot: unknown kind " + std::to_string(kind));
    Archive::load(in, snap.config);
    Archive::load(in, snap.program);
    snap.state = in.bytes();
    if (!in.atEnd())
        fatal(ErrCode::BadSnapshot,
              "snapshot: trailing bytes before the CRC");
    return snap;
}

MachineSnapshot
deserialize(const std::vector<uint8_t> &data)
{
    return deserialize(data.data(), data.size());
}

} // namespace mtfpu::snapshot
