#include "trace/trace_file.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include <sys/stat.h>

#include "common/hash.hh"
#include "common/log.hh"

namespace c3d
{

namespace
{

constexpr char Magic[4] = {'C', '3', 'D', 'T'};
constexpr std::uint32_t Version = 1;
constexpr std::uint32_t MaxTraceCores = 4096;

struct Header
{
    char magic[4];
    std::uint32_t version;
    std::uint32_t numCores;
    std::uint32_t pad;
    std::uint64_t records;
};

struct DiskRecord
{
    std::uint16_t core;
    std::uint16_t gap;
    std::uint8_t op;
    std::uint8_t pad[3];
    std::uint64_t addr;
};

static_assert(sizeof(Header) == 24, "header layout");
static_assert(sizeof(DiskRecord) == 16, "record layout");

constexpr std::uint64_t HeaderBytes = sizeof(Header);
constexpr std::uint64_t RecordBytes = sizeof(DiskRecord);

/** Shared read-buffer size; also the scan granularity (4096 recs). */
constexpr std::size_t ChunkBytes = 64 * 1024;

/** Per-core lane refill target (16 KiB of TraceOps per core). */
constexpr std::size_t LaneOps = 1024;

TraceOp
decodeRecord(const unsigned char *bytes)
{
    DiskRecord d;
    std::memcpy(&d, bytes, sizeof(d));
    TraceOp op;
    op.gap = d.gap;
    op.op = d.op ? MemOp::Write : MemOp::Read;
    op.addr = d.addr;
    return op;
}

/**
 * Process-wide scan memo: a sweep constructs one TraceFileWorkload
 * per grid point, and the multi-GB validation+hash pass must not
 * repeat per row. Entries are keyed by path and trusted only when
 * the file's stat identity (size + mtime) still matches AND the
 * caller's expected content hash equals the memoized one -- callers
 * without an expected hash (tools, tests) always scan fresh, so the
 * memo can never serve stale identity. loadTraceProfile seeds it,
 * so a sweep process reads each trace exactly once before replay.
 */
struct ScanMemoEntry
{
    std::int64_t size = -1;
    std::int64_t mtimeSec = 0;
    std::int64_t mtimeNsec = 0;
    TraceFileInfo info;
};

std::mutex g_scanMemoMutex;
std::unordered_map<std::string, ScanMemoEntry> g_scanMemo;

bool
statIdentity(const std::string &path, ScanMemoEntry &out)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    out.size = static_cast<std::int64_t>(st.st_size);
    out.mtimeSec = static_cast<std::int64_t>(st.st_mtim.tv_sec);
    out.mtimeNsec = static_cast<std::int64_t>(st.st_mtim.tv_nsec);
    return true;
}

/**
 * Remember a completed scan under @p ident -- the stat identity
 * captured BEFORE the scan started. If the file is replaced while
 * scanning, the pre-scan identity matches neither the old nor the
 * new file on a later stat, so the memo misses and rescans instead
 * of binding fresh stat identity to stale contents.
 */
void
rememberScan(const std::string &path, const ScanMemoEntry &ident,
             const TraceFileInfo &info)
{
    if (ident.size < 0)
        return; // file never stat'ed; nothing safe to remember
    ScanMemoEntry entry = ident;
    entry.info = info;
    std::lock_guard<std::mutex> lock(g_scanMemoMutex);
    g_scanMemo[path] = std::move(entry);
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint32_t num_cores)
    : numCores(num_cores)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        c3d_fatal("cannot open trace file '%s' for writing",
                  path.c_str());
    Header h{};
    std::memcpy(h.magic, Magic, 4);
    h.version = Version;
    h.numCores = num_cores;
    h.records = 0;
    if (std::fwrite(&h, sizeof(h), 1, file) != 1)
        c3d_fatal("trace header write failed");
}

TraceFileWriter::~TraceFileWriter()
{
    if (file)
        close();
}

void
TraceFileWriter::append(const TraceRecord &rec)
{
    c3d_assert(file, "append after close");
    DiskRecord d{};
    d.core = rec.core;
    d.gap = rec.gap;
    d.op = rec.op == MemOp::Write ? 1 : 0;
    d.addr = rec.addr;
    if (std::fwrite(&d, sizeof(d), 1, file) != 1)
        c3d_fatal("trace record write failed");
    ++count;
}

void
TraceFileWriter::close()
{
    c3d_assert(file, "double close");
    // Patch the record count into the header.
    Header h{};
    std::memcpy(h.magic, Magic, 4);
    h.version = Version;
    h.numCores = numCores;
    h.records = count;
    std::fseek(file, 0, SEEK_SET);
    if (std::fwrite(&h, sizeof(h), 1, file) != 1)
        c3d_fatal("trace header rewrite failed");
    std::fclose(file);
    file = nullptr;
}

// --------------------------------------------------------------------
// Validation scan
// --------------------------------------------------------------------

bool
scanTraceFile(const std::string &path, TraceFileInfo &info,
              std::string &error)
{
    info = TraceFileInfo{};
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open trace file '" + path + "'";
        return false;
    }

    unsigned char hdr_bytes[HeaderBytes];
    std::uint64_t hash = Fnv1aOffset;
    if (std::fread(hdr_bytes, 1, HeaderBytes, f) != HeaderBytes) {
        error = "'" + path + "' is too short for a trace header";
        std::fclose(f);
        return false;
    }
    hash = fnv1aBytes(hash, hdr_bytes, HeaderBytes);

    Header h;
    std::memcpy(&h, hdr_bytes, sizeof(h));
    if (std::memcmp(h.magic, Magic, 4) != 0) {
        error = "'" + path + "' is not a c3dsim trace file "
                "(bad magic)";
        std::fclose(f);
        return false;
    }
    if (h.version != Version) {
        error = "'" + path + "' has unsupported trace version " +
            std::to_string(h.version) + " (want " +
            std::to_string(Version) + ")";
        std::fclose(f);
        return false;
    }
    if (h.numCores == 0 || h.numCores > MaxTraceCores) {
        error = "'" + path + "' names a core count out of range: " +
            std::to_string(h.numCores);
        std::fclose(f);
        return false;
    }

    info.numCores = h.numCores;
    info.perCoreRecords.assign(h.numCores, 0);

    std::vector<unsigned char> buf(ChunkBytes);
    std::uint64_t bytes = HeaderBytes;
    std::uint64_t recs = 0;
    std::size_t pend = 0; // partial record carried across chunks
    std::size_t got;
    while ((got = std::fread(buf.data() + pend, 1,
                             ChunkBytes - pend, f)) > 0) {
        hash = fnv1aBytes(hash, buf.data() + pend, got);
        bytes += got;
        const std::size_t avail = pend + got;
        const std::size_t use = (avail / RecordBytes) * RecordBytes;
        for (std::size_t off = 0; off < use; off += RecordBytes) {
            DiskRecord d;
            std::memcpy(&d, buf.data() + off, sizeof(d));
            if (d.core >= h.numCores) {
                error = "'" + path + "' record " +
                    std::to_string(recs) + " names core " +
                    std::to_string(d.core) + " of a " +
                    std::to_string(h.numCores) + "-core trace";
                std::fclose(f);
                return false;
            }
            ++info.perCoreRecords[d.core];
            if (d.op)
                ++info.writes;
            else
                ++info.reads;
            ++recs;
        }
        pend = avail - use;
        if (pend)
            std::memmove(buf.data(), buf.data() + use, pend);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        error = "reading '" + path + "' failed";
        return false;
    }
    if (pend != 0) {
        error = "'" + path + "' is truncated mid-record (" +
            std::to_string(pend) + " trailing bytes after record " +
            std::to_string(recs) + ")";
        return false;
    }
    if (recs != h.records) {
        error = "'" + path + "' header names " +
            std::to_string(h.records) + " records but the file "
            "holds " + std::to_string(recs);
        return false;
    }
    if (recs == 0) {
        error = "'" + path + "' holds no records";
        return false;
    }
    for (std::uint32_t c = 0; c < h.numCores; ++c) {
        if (info.perCoreRecords[c] == 0) {
            error = "'" + path + "' has no records for core " +
                std::to_string(c);
            return false;
        }
    }

    info.records = recs;
    info.contentHash = hash;
    info.fileBytes = bytes;
    return true;
}

bool
sameFileTarget(const std::string &in, const std::string &out)
{
    if (in == out)
        return true;
    struct stat si, so;
    return ::stat(in.c_str(), &si) == 0 &&
        ::stat(out.c_str(), &so) == 0 && si.st_dev == so.st_dev &&
        si.st_ino == so.st_ino;
}

bool
truncateTraceFile(const std::string &in, const std::string &out,
                  std::uint64_t keep, std::string &error,
                  TraceFileInfo *out_info)
{
    // In-place truncation would destroy the input: the writer's
    // "wb" open truncates the inode while the reader is mid-copy.
    if (sameFileTarget(in, out)) {
        error = "refusing in-place truncation of '" + in +
            "'; write to a different --out";
        return false;
    }

    TraceFileInfo info;
    if (!scanTraceFile(in, info, error))
        return false;
    if (keep == 0 || keep >= info.records) {
        error = "--records=" + std::to_string(keep) +
            " does not truncate '" + in + "' (" +
            std::to_string(info.records) + " records)";
        return false;
    }

    std::FILE *f = std::fopen(in.c_str(), "rb");
    if (!f) {
        error = "cannot reopen trace file '" + in + "'";
        return false;
    }
    if (std::fseek(f, static_cast<long>(HeaderBytes), SEEK_SET) !=
        0) {
        error = "seek in '" + in + "' failed";
        std::fclose(f);
        return false;
    }
    {
        TraceFileWriter writer(out, info.numCores);
        for (std::uint64_t i = 0; i < keep; ++i) {
            unsigned char rec[RecordBytes];
            if (std::fread(rec, 1, sizeof(rec), f) != sizeof(rec)) {
                error = "read of '" + in + "' failed at record " +
                    std::to_string(i);
                std::fclose(f);
                std::remove(out.c_str());
                return false;
            }
            DiskRecord d;
            std::memcpy(&d, rec, sizeof(d));
            writer.append({d.core, d.gap,
                           d.op ? MemOp::Write : MemOp::Read,
                           d.addr});
        }
        writer.close();
    }
    std::fclose(f);

    // The prefix may have dropped a core entirely, which would make
    // the output unreplayable -- validate and clean up if so.
    TraceFileInfo checked;
    if (!scanTraceFile(out, checked, error)) {
        error = "truncation to " + std::to_string(keep) +
            " records yields an invalid trace (" + error +
            "); not keeping '" + out + "'";
        std::remove(out.c_str());
        return false;
    }
    if (out_info)
        *out_info = checked;
    return true;
}

std::string
traceWorkloadName(const std::string &path,
                  std::uint64_t content_hash)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "@%08x",
                  static_cast<std::uint32_t>(
                      content_hash ^ (content_hash >> 32)));
    return "trace:" + base + suffix;
}

bool
loadTraceProfile(const std::string &path, WorkloadProfile &out,
                 std::string &error)
{
    ScanMemoEntry ident;
    statIdentity(path, ident); // pre-scan, see rememberScan
    TraceFileInfo info;
    if (!scanTraceFile(path, info, error))
        return false;
    // Seed the replay scan memo: the sweep rows about to open this
    // trace (with the hash below as their expected identity) must
    // not re-read a file this pass just validated.
    rememberScan(path, ident, info);

    // Inert synthetic fields: a trace profile is pure identity (name
    // + content hash); the reference stream comes from the file.
    WorkloadProfile p;
    p.name = traceWorkloadName(path, info.contentHash);
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.streamBytes = 0;
    p.streamSegmentBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = 0;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracStream = 0;
    p.fracMigratory = 0;
    p.writeFracShared = 0;
    p.writeFracSharedCold = 0;
    p.writeFracPrivate = 0;
    p.writeFracPrivateCold = 0;
    p.writeFracStream = 0;
    p.privateHotFrac = 0;
    p.privateHotProb = 0;
    p.avgGap = 0;
    p.barrierOps = 0;
    p.seed = 0;
    p.tracePath = path;
    p.traceHash = info.contentHash;
    out = std::move(p);
    return true;
}

// --------------------------------------------------------------------
// Streaming reader
// --------------------------------------------------------------------

TraceFileReader::~TraceFileReader()
{
    if (file)
        std::fclose(file);
}

bool
TraceFileReader::open(const std::string &path, std::string &error,
                      const std::uint64_t *expected_hash)
{
    c3d_assert(!file, "reader already open");

    bool scanned = false;
    ScanMemoEntry ident;
    const bool have_ident = statIdentity(path, ident);
    if (expected_hash && have_ident) {
        std::lock_guard<std::mutex> lock(g_scanMemoMutex);
        const auto it = g_scanMemo.find(path);
        if (it != g_scanMemo.end() &&
            it->second.size == ident.size &&
            it->second.mtimeSec == ident.mtimeSec &&
            it->second.mtimeNsec == ident.mtimeNsec &&
            it->second.info.contentHash == *expected_hash) {
            meta = it->second.info;
            scanned = true;
        }
    }
    if (!scanned) {
        if (!scanTraceFile(path, meta, error))
            return false;
        if (expected_hash && meta.contentHash != *expected_hash) {
            char want[20], got[20];
            std::snprintf(want, sizeof(want), "%016llx",
                          static_cast<unsigned long long>(
                              *expected_hash));
            std::snprintf(got, sizeof(got), "%016llx",
                          static_cast<unsigned long long>(
                              meta.contentHash));
            error = "'" + path + "' changed since the grid was "
                "built (content hash " + got + ", expected " +
                want + ")";
            return false;
        }
        if (have_ident)
            rememberScan(path, ident, meta);
    }

    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        error = "cannot open trace file '" + path + "'";
        return false;
    }
    this->path = path;
    lanes.assign(meta.numCores, Lane{});
    for (Lane &lane : lanes) {
        lane.fileOff = HeaderBytes;
        lane.buf.reserve(LaneOps);
    }
    chunk.resize(ChunkBytes);
    return true;
}

void
TraceFileReader::refill(std::uint32_t core)
{
    std::lock_guard<std::mutex> lock(refillMu);
    Lane &lane = lanes[core];
    lane.buf.clear();
    lane.pos = 0;

    const std::uint64_t data_end =
        HeaderBytes + meta.records * RecordBytes;
    // One full cycle over the data section guarantees at least one
    // record for this core (scanTraceFile rejects empty lanes).
    std::uint64_t budget = data_end - HeaderBytes;
    while (lane.buf.size() < LaneOps && budget > 0) {
        if (lane.fileOff >= data_end)
            lane.fileOff = HeaderBytes;
        const std::uint64_t want64 =
            std::min<std::uint64_t>({ChunkBytes,
                                     data_end - lane.fileOff,
                                     budget});
        const std::size_t want = static_cast<std::size_t>(want64);
        if (std::fseek(file, static_cast<long>(lane.fileOff),
                       SEEK_SET) != 0 ||
            std::fread(chunk.data(), 1, want, file) != want)
            c3d_panic("trace read of '%s' failed at offset %llu "
                      "(file changed during replay?)",
                      path.c_str(),
                      static_cast<unsigned long long>(lane.fileOff));
        std::size_t consumed = want;
        for (std::size_t off = 0; off < want; off += RecordBytes) {
            std::uint16_t rec_core;
            std::memcpy(&rec_core, chunk.data() + off,
                        sizeof(rec_core));
            if (rec_core != core)
                continue;
            lane.buf.push_back(decodeRecord(chunk.data() + off));
            if (lane.buf.size() == LaneOps) {
                consumed = off + RecordBytes;
                break;
            }
        }
        lane.fileOff += consumed;
        budget -= consumed;
    }
    c3d_assert(!lane.buf.empty(),
               "trace lane refill found no records");
    // A lane whose whole record list fits the buffer just collected
    // its full period (one cycle's budget, no record twice): cycle
    // it in memory from now on.
    lane.whole = meta.perCoreRecords[core] <= LaneOps;
}

TraceOp
TraceFileReader::next(std::uint32_t core)
{
    c3d_assert(core < meta.numCores, "trace core out of range");
    Lane &lane = lanes[core];
    if (lane.pos == lane.buf.size()) {
        if (lane.whole)
            lane.pos = 0;
        else
            refill(core);
    }
    return lane.buf[lane.pos++];
}

// --------------------------------------------------------------------
// Workload adapter
// --------------------------------------------------------------------

TraceFileWorkload::TraceFileWorkload(const std::string &path)
{
    std::string error;
    if (!reader.open(path, error))
        c3d_panic("%s", error.c_str());
    workloadName =
        traceWorkloadName(path, reader.info().contentHash);
}

TraceFileWorkload::TraceFileWorkload(const std::string &path,
                                     std::uint64_t expected_hash)
{
    std::string error;
    if (!reader.open(path, error, &expected_hash))
        c3d_panic("%s", error.c_str());
    workloadName =
        traceWorkloadName(path, reader.info().contentHash);
}

TraceOp
TraceFileWorkload::next(CoreId core)
{
    return reader.next(core % reader.numCores());
}

std::uint32_t
TraceFileWorkload::activeCores(std::uint32_t total_cores) const
{
    return std::min(total_cores, reader.numCores());
}

} // namespace c3d
