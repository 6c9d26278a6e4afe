#include "snapshot/snapshot.hh"

#include <cstdio>

#include "common/log.hh"
#include "machine/interpreter.hh"
#include "machine/machine.hh"

namespace mtfpu::snapshot
{

namespace
{

constexpr char kMagic[4] = {'M', 'T', 'S', 'N'};

void
saveCacheConfig(ByteWriter &out, const memory::CacheConfig &c)
{
    out.u64(c.sizeBytes);
    out.u64(c.lineBytes);
    out.u32(c.missPenalty);
    out.b(c.writeAllocate);
}

memory::CacheConfig
restoreCacheConfig(ByteReader &in)
{
    memory::CacheConfig c;
    c.sizeBytes = in.u64();
    c.lineBytes = in.u64();
    c.missPenalty = in.u32();
    c.writeAllocate = in.b();
    return c;
}

void
saveConfig(ByteWriter &out, const machine::MachineConfig &c)
{
    out.u32(c.fpuLatency);
    out.f64(c.cycleNs);
    out.u32(c.storeCycles);
    out.b(c.overlapWithVector);
    out.u8(static_cast<uint8_t>(c.hazardPolicy));
    out.u8(static_cast<uint8_t>(c.fpBackend));
    saveCacheConfig(out, c.memory.dataCache);
    saveCacheConfig(out, c.memory.instrBuffer);
    saveCacheConfig(out, c.memory.instrCache);
    out.u64(c.memory.memBytes);
    out.b(c.memory.modelCaches);
    out.u64(c.maxCycles);
    out.u64(c.watchdogMs);
}

machine::MachineConfig
restoreConfig(ByteReader &in)
{
    machine::MachineConfig c;
    c.fpuLatency = in.u32();
    c.cycleNs = in.f64();
    c.storeCycles = in.u32();
    c.overlapWithVector = in.b();
    c.hazardPolicy = static_cast<machine::HazardPolicy>(in.u8());
    c.fpBackend = static_cast<softfp::Backend>(in.u8());
    c.memory.dataCache = restoreCacheConfig(in);
    c.memory.instrBuffer = restoreCacheConfig(in);
    c.memory.instrCache = restoreCacheConfig(in);
    c.memory.memBytes = in.u64();
    c.memory.modelCaches = in.b();
    c.maxCycles = in.u64();
    c.watchdogMs = in.u64();
    return c;
}

void
saveProgram(ByteWriter &out, const assembler::Program &program)
{
    out.u32(static_cast<uint32_t>(program.code.size()));
    for (const isa::Instr &in : program.code)
        out.u32(in.encode());
}

assembler::Program
restoreProgram(ByteReader &in)
{
    assembler::Program program;
    const uint32_t n = in.count(4); // bytes per encoded instruction
    program.code.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        program.code.push_back(isa::Instr::decode(in.u32()));
    return program;
}

} // anonymous namespace

MachineSnapshot
capture(const machine::Machine &m)
{
    MachineSnapshot snap;
    snap.kind = SnapshotKind::Machine;
    snap.config = m.config();
    snap.program = m.program();
    ByteWriter state;
    m.saveState(state);
    snap.state = state.take();
    return snap;
}

MachineSnapshot
capture(const machine::Interpreter &interp)
{
    MachineSnapshot snap;
    snap.kind = SnapshotKind::Interpreter;
    snap.config.memory.memBytes = interp.mem().size();
    snap.program = interp.program();
    ByteWriter state;
    interp.saveState(state);
    snap.state = state.take();
    return snap;
}

void
restore(machine::Machine &m, const MachineSnapshot &snap)
{
    if (snap.kind != SnapshotKind::Machine)
        fatal(ErrCode::BadSnapshot,
              "snapshot: not a Machine snapshot");
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

void
restore(machine::Interpreter &interp, const MachineSnapshot &snap)
{
    if (snap.kind != SnapshotKind::Interpreter)
        fatal(ErrCode::BadSnapshot,
              "snapshot: not an Interpreter snapshot");
    interp.loadProgram(snap.program);
    ByteReader in(snap.state);
    interp.restoreState(in);
    if (!in.atEnd())
        fatal(ErrCode::BadSnapshot,
              "snapshot: trailing bytes after interpreter state");
}

std::vector<uint8_t>
serialize(const MachineSnapshot &snap)
{
    ByteWriter out;
    for (const char c : kMagic)
        out.u8(static_cast<uint8_t>(c));
    out.u32(kFormatVersion);
    out.u8(static_cast<uint8_t>(snap.kind));
    saveConfig(out, snap.config);
    saveProgram(out, snap.program);
    out.bytes(snap.state.data(), snap.state.size());
    out.u32(crc32(out.data().data(), out.size()));
    return out.take();
}

MachineSnapshot
deserialize(const uint8_t *data, size_t size)
{
    // The trailing CRC-32 covers every byte before it; verify before
    // interpreting anything (a torn checkpoint must never half-load).
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
    if (kind > static_cast<uint8_t>(SnapshotKind::Interpreter))
        fatal(ErrCode::BadSnapshot,
              "snapshot: unknown kind " + std::to_string(kind));
    snap.kind = static_cast<SnapshotKind>(kind);
    snap.config = restoreConfig(in);
    snap.program = restoreProgram(in);
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

void
writeFile(const std::string &path, const MachineSnapshot &snap)
{
    const std::vector<uint8_t> bytes = serialize(snap);
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal(ErrCode::BadSnapshot,
              "snapshot: cannot open " + tmp + " for writing");
    const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        fatal(ErrCode::BadSnapshot, "snapshot: short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal(ErrCode::BadSnapshot,
              "snapshot: cannot rename " + tmp + " to " + path);
    }
}

MachineSnapshot
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal(ErrCode::BadSnapshot,
              "snapshot: cannot open " + path + " for reading");
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return deserialize(bytes);
}

} // namespace mtfpu::snapshot
