/**
 * @file
 * Unit tests for the binary trace file format: writer/reader round
 * trips, the streaming per-core lanes, and every scanTraceFile
 * rejection path (truncation, bad magic/version, core mismatches,
 * zero-record files).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "trace/trace_file.hh"

namespace c3d
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "c3dsim_trace_test.bin";
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Write a tiny valid trace: @p per_core records per core. */
    void
    writeValid(std::uint32_t cores, std::uint32_t per_core)
    {
        TraceFileWriter w(path, cores);
        for (std::uint32_t i = 0; i < per_core; ++i) {
            for (std::uint16_t c = 0; c < cores; ++c) {
                w.append({c, static_cast<std::uint16_t>(i), MemOp::Read,
                          0x1000ull + i * 64 + c});
            }
        }
        w.close();
    }

    /** Overwrite @p count bytes at @p offset. */
    void
    patchBytes(long offset, const void *bytes, std::size_t count)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, offset, SEEK_SET);
        ASSERT_EQ(std::fwrite(bytes, 1, count, f), count);
        std::fclose(f);
    }

    /** Truncate the file to @p bytes. */
    void
    chopTo(std::uint64_t bytes)
    {
        ASSERT_EQ(truncate(path.c_str(),
                           static_cast<off_t>(bytes)), 0);
    }

    std::string path;
};

/**
 * The SimError a TraceFileWorkload built from @p args throws -- a
 * defective trace fails its row, not the process -- or "" if none.
 */
template <typename... A>
std::string
workloadError(const A &...args)
{
    try {
        TraceFileWorkload wl(args...);
    } catch (const SimError &e) {
        return e.what();
    }
    return "";
}

TEST_F(TraceFileTest, RoundTrip)
{
    {
        TraceFileWriter w(path, 2);
        w.append({0, 3, MemOp::Read, 0x1000});
        w.append({1, 0, MemOp::Write, 0x2040});
        w.append({0, 7, MemOp::Read, 0x3000});
        w.close();
    }
    TraceFileWorkload wl(path);
    EXPECT_EQ(wl.fileCores(), 2u);
    EXPECT_EQ(wl.records(), 3u);

    const TraceOp a = wl.next(0);
    EXPECT_EQ(a.addr, 0x1000u);
    EXPECT_EQ(a.gap, 3u);
    EXPECT_EQ(a.op, MemOp::Read);

    const TraceOp b = wl.next(1);
    EXPECT_EQ(b.addr, 0x2040u);
    EXPECT_EQ(b.op, MemOp::Write);
}

TEST_F(TraceFileTest, PerCoreStreamsWrapAround)
{
    {
        TraceFileWriter w(path, 1);
        w.append({0, 0, MemOp::Read, 0xA0});
        w.append({0, 0, MemOp::Read, 0xB0});
        w.close();
    }
    TraceFileWorkload wl(path);
    EXPECT_EQ(wl.next(0).addr, 0xA0u);
    EXPECT_EQ(wl.next(0).addr, 0xB0u);
    EXPECT_EQ(wl.next(0).addr, 0xA0u); // wrapped
}

TEST_F(TraceFileTest, ActiveCoresClampedToFile)
{
    writeValid(3, 1);
    TraceFileWorkload wl(path);
    EXPECT_EQ(wl.activeCores(32), 3u);
    EXPECT_EQ(wl.activeCores(2), 2u);
}

TEST_F(TraceFileTest, WriterCountsRecords)
{
    TraceFileWriter w(path, 1);
    for (int i = 0; i < 100; ++i)
        w.append({0, 0, MemOp::Read, static_cast<Addr>(i) * 64});
    EXPECT_EQ(w.recordsWritten(), 100u);
    w.close();
    TraceFileWorkload wl(path);
    EXPECT_EQ(wl.records(), 100u);
}

// ---------------------------------------------------------------------
// scanTraceFile: stats, hashing, and every rejection path
// ---------------------------------------------------------------------

TEST_F(TraceFileTest, ScanReportsStatsAndHash)
{
    {
        TraceFileWriter w(path, 2);
        w.append({0, 1, MemOp::Read, 0x40});
        w.append({1, 2, MemOp::Write, 0x80});
        w.append({0, 3, MemOp::Write, 0xC0});
        w.close();
    }
    TraceFileInfo info;
    std::string error;
    ASSERT_TRUE(scanTraceFile(path, info, error)) << error;
    EXPECT_EQ(info.numCores, 2u);
    EXPECT_EQ(info.records, 3u);
    EXPECT_EQ(info.reads, 1u);
    EXPECT_EQ(info.writes, 2u);
    ASSERT_EQ(info.perCoreRecords.size(), 2u);
    EXPECT_EQ(info.perCoreRecords[0], 2u);
    EXPECT_EQ(info.perCoreRecords[1], 1u);
    EXPECT_EQ(info.fileBytes, 24u + 3 * 16u);
    EXPECT_NE(info.contentHash, 0u);

    // Any single changed byte must change the content hash.
    const std::uint64_t before = info.contentHash;
    const unsigned char flip = 0xFF;
    patchBytes(24 + 8, &flip, 1); // record 0's address
    TraceFileInfo changed;
    ASSERT_TRUE(scanTraceFile(path, changed, error)) << error;
    EXPECT_NE(changed.contentHash, before);
}

TEST_F(TraceFileTest, ScanRejectsTruncatedMidRecord)
{
    writeValid(2, 4);
    chopTo(24 + 5 * 16 + 7); // half of record 5
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("truncated mid-record"), std::string::npos)
        << error;
}

TEST_F(TraceFileTest, ScanRejectsHeaderRecordCountMismatch)
{
    writeValid(2, 4);
    chopTo(24 + 6 * 16); // drop two whole records
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("header names"), std::string::npos) << error;

    // Extra appended records (valid core ids) are also a mismatch.
    writeValid(2, 4);
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const unsigned char extra[16] = {0};
    ASSERT_EQ(std::fwrite(extra, 1, 16, f), 16u);
    std::fclose(f);
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("header names"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ScanRejectsBadMagicAndVersion)
{
    writeValid(1, 2);
    TraceFileInfo info;
    std::string error;

    const char bad_magic[4] = {'N', 'O', 'P', 'E'};
    patchBytes(0, bad_magic, 4);
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

    writeValid(1, 2);
    const std::uint32_t bad_version = 99;
    patchBytes(4, &bad_version, 4);
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ScanRejectsCoreCountMismatches)
{
    // A record naming a core beyond the header's core count.
    writeValid(2, 2);
    const std::uint16_t rogue_core = 5;
    patchBytes(24 + 16, &rogue_core, 2); // record 1's core field
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("names core 5"), std::string::npos) << error;

    // A header core count out of range.
    writeValid(2, 2);
    const std::uint32_t rogue_count = 0;
    patchBytes(8, &rogue_count, 4);
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ScanRejectsZeroRecordFile)
{
    {
        TraceFileWriter w(path, 2);
        w.close(); // header only, zero records
    }
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("no records"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ScanRejectsEmptyCoreLane)
{
    {
        TraceFileWriter w(path, 3);
        w.append({0, 0, MemOp::Read, 0x40});
        w.append({2, 0, MemOp::Read, 0x80}); // core 1 never appears
        w.close();
    }
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("no records for core 1"), std::string::npos)
        << error;
}

TEST_F(TraceFileTest, ScanRejectsShortHeader)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("C3DT", f); // magic only
    std::fclose(f);
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(scanTraceFile(path, info, error));
    EXPECT_NE(error.find("too short"), std::string::npos) << error;
}

TEST_F(TraceFileTest, RejectsGarbageFile)
{
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs("not a trace file at all, sorry", f);
        std::fclose(f);
    }
    EXPECT_NE(workloadError(path).find("is not a c3dsim trace file"),
              std::string::npos);
}

TEST_F(TraceFileTest, RejectsMissingFile)
{
    EXPECT_NE(workloadError(std::string("/nonexistent/x.trace"))
                  .find("cannot open trace file '/nonexistent/x.trace'"),
              std::string::npos);
}

TEST_F(TraceFileTest, WorkloadRejectsTruncatedFile)
{
    writeValid(2, 4);
    chopTo(24 + 3 * 16 + 5);
    EXPECT_NE(workloadError(path).find("is truncated mid-record"),
              std::string::npos);
}

TEST_F(TraceFileTest, ReadFailureMidReplayThrows)
{
    // Enough records that lane 0 refills from the file mid-replay;
    // the file shrinks under the open reader before the refill.
    writeValid(2, 3000);
    TraceFileReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, error)) << error;
    for (int i = 0; i < 1024; ++i)
        reader.next(0);
    chopTo(24 + 16);
    try {
        for (int i = 0; i < 3000; ++i)
            reader.next(0);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("trace read of '" + path + "' failed"),
                  std::string::npos)
            << what;
    }
}

// ---------------------------------------------------------------------
// Streaming reader: lanes, refills, wrap-around
// ---------------------------------------------------------------------

/**
 * Writer -> reader round-trip property: for a randomized multi-core
 * interleaving far larger than one lane buffer (forcing multiple
 * buffered refills per core) and spanning several read chunks, every
 * core's replayed stream equals its records in file order, including
 * wrap-around back to the first record.
 */
TEST_F(TraceFileTest, RandomizedRoundTripStreamsPerCoreInOrder)
{
    constexpr std::uint32_t Cores = 5;
    constexpr std::size_t Records = 9000; // > one 4096-record chunk
    Rng rng(0xC3DF11E5);

    std::vector<std::vector<TraceOp>> expected(Cores);
    {
        TraceFileWriter w(path, Cores);
        for (std::size_t i = 0; i < Records; ++i) {
            TraceRecord rec;
            // Leading round-robin guarantees every lane is nonempty.
            rec.core = static_cast<std::uint16_t>(
                i < Cores ? i : rng.below(Cores));
            rec.gap = static_cast<std::uint16_t>(rng.below(16));
            rec.op = rng.below(4) == 0 ? MemOp::Write : MemOp::Read;
            rec.addr = rng.below(1u << 20) * 64;
            w.append(rec);
            TraceOp op;
            op.gap = rec.gap;
            op.op = rec.op;
            op.addr = rec.addr;
            expected[rec.core].push_back(op);
        }
        w.close();
    }

    TraceFileReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, error)) << error;
    EXPECT_EQ(reader.numCores(), Cores);
    EXPECT_EQ(reader.records(), Records);

    // Read every lane past its end: 1.5 cycles each, interleaved so
    // lane state cannot leak across cores.
    std::vector<std::size_t> cursor(Cores, 0);
    for (std::uint32_t c = 0; c < Cores; ++c) {
        const std::size_t lane_len = expected[c].size();
        const std::size_t want = lane_len + lane_len / 2;
        for (std::size_t i = 0; i < want; ++i) {
            const TraceOp got = reader.next(c);
            const TraceOp &exp = expected[c][i % lane_len];
            ASSERT_EQ(got.addr, exp.addr)
                << "core " << c << " op " << i;
            ASSERT_EQ(got.gap, exp.gap) << "core " << c << " op " << i;
            ASSERT_EQ(got.op, exp.op) << "core " << c << " op " << i;
        }
    }
}

TEST_F(TraceFileTest, SparseLaneCyclesWithoutRescan)
{
    // Core 1 has just two records in a file dominated by core 0:
    // its lane caches the whole period after one scan and cycles it
    // (wrapping correctly), instead of re-scanning the file per op.
    {
        TraceFileWriter w(path, 2);
        w.append({1, 9, MemOp::Write, 0xF00});
        for (std::uint32_t i = 0; i < 6000; ++i)
            w.append({0, 0, MemOp::Read, 0x1000ull + i * 64});
        w.append({1, 4, MemOp::Read, 0xF40});
        w.close();
    }
    TraceFileReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, error)) << error;
    for (int cycle = 0; cycle < 500; ++cycle) {
        const TraceOp a = reader.next(1);
        EXPECT_EQ(a.addr, 0xF00u);
        EXPECT_EQ(a.op, MemOp::Write);
        const TraceOp b = reader.next(1);
        EXPECT_EQ(b.addr, 0xF40u);
        EXPECT_EQ(b.gap, 4u);
    }
    // The dense lane still replays in order alongside.
    EXPECT_EQ(reader.next(0).addr, 0x1000u);
    EXPECT_EQ(reader.next(0).addr, 0x1040u);
}

TEST_F(TraceFileTest, InterleavedLaneReadsAreIndependent)
{
    constexpr std::uint32_t Cores = 3;
    constexpr std::uint32_t PerCore = 2600; // > LaneOps refill size
    writeValid(Cores, PerCore);

    TraceFileReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, error)) << error;

    // Round-robin across lanes: each lane must still see its own
    // stream in order, regardless of the other lanes' refills.
    for (std::uint32_t i = 0; i < PerCore; ++i) {
        for (std::uint32_t c = 0; c < Cores; ++c) {
            const TraceOp op = reader.next(c);
            ASSERT_EQ(op.addr, 0x1000ull + i * 64 + c)
                << "core " << c << " op " << i;
            ASSERT_EQ(op.gap, static_cast<std::uint16_t>(i));
        }
    }
}

TEST_F(TraceFileTest, TruncateCopiesPrefixAndRefusesFootguns)
{
    writeValid(2, 10); // 20 records
    std::string error;
    TraceFileInfo out_info;

    // In-place truncation (writer would destroy the input mid-read)
    // refuses up front and leaves the input untouched.
    EXPECT_FALSE(truncateTraceFile(path, path, 5, error));
    EXPECT_NE(error.find("in-place"), std::string::npos) << error;
    TraceFileInfo info;
    ASSERT_TRUE(scanTraceFile(path, info, error)) << error;
    EXPECT_EQ(info.records, 20u);

    // A proper prefix copy revalidates and reports the new shape.
    const std::string out = path + ".short";
    ASSERT_TRUE(truncateTraceFile(path, out, 6, error, &out_info))
        << error;
    EXPECT_EQ(out_info.records, 6u);
    EXPECT_EQ(out_info.numCores, 2u);
    TraceFileWorkload wl(out);
    EXPECT_EQ(wl.records(), 6u);

    // keep >= input records is not a truncation.
    EXPECT_FALSE(truncateTraceFile(path, out, 20, error));
    EXPECT_NE(error.find("does not truncate"), std::string::npos)
        << error;
    std::remove(out.c_str());
}

// ---------------------------------------------------------------------
// Trace profiles (sweep-grid integration surface)
// ---------------------------------------------------------------------

TEST_F(TraceFileTest, LoadTraceProfileCarriesIdentity)
{
    writeValid(4, 8);
    WorkloadProfile p;
    std::string error;
    ASSERT_TRUE(loadTraceProfile(path, p, error)) << error;
    EXPECT_TRUE(p.isTrace());
    EXPECT_EQ(p.tracePath, path);
    EXPECT_EQ(p.name.rfind("trace:", 0), 0u);
    EXPECT_EQ(p.barrierOps, 0u);

    TraceFileInfo info;
    ASSERT_TRUE(scanTraceFile(path, info, error)) << error;
    EXPECT_EQ(p.traceHash, info.contentHash);
    // The name carries a content-hash suffix, so two corpus files
    // sharing a basename stay distinct in identity keys.
    EXPECT_EQ(p.name, traceWorkloadName(path, info.contentHash));
    EXPECT_NE(p.name.find('@'), std::string::npos);

    // scaled() must preserve the trace identity (the engine scales
    // every profile before running it).
    const WorkloadProfile s = p.scaled(256);
    EXPECT_TRUE(s.isTrace());
    EXPECT_EQ(s.tracePath, p.tracePath);
    EXPECT_EQ(s.traceHash, p.traceHash);
}

TEST_F(TraceFileTest, LoadTraceProfileRejectsBadFile)
{
    WorkloadProfile p;
    std::string error;
    EXPECT_FALSE(loadTraceProfile("/nonexistent/x.c3dt", p, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(p.isTrace());
}

TEST_F(TraceFileTest, ReaderRefusesMismatchedExpectedHash)
{
    writeValid(2, 4);
    TraceFileInfo info;
    std::string error;
    ASSERT_TRUE(scanTraceFile(path, info, error)) << error;

    // The right hash opens; a stale hash (the file changed after
    // the grid was built) refuses with a loud diagnostic.
    {
        TraceFileReader reader;
        ASSERT_TRUE(reader.open(path, error, &info.contentHash))
            << error;
    }
    const std::uint64_t stale = info.contentHash ^ 1;
    TraceFileReader reader;
    EXPECT_FALSE(reader.open(path, error, &stale));
    EXPECT_NE(error.find("changed since the grid was built"),
              std::string::npos)
        << error;

    // The workload path reports it too, as a row failure.
    EXPECT_NE(workloadError(path, stale)
                  .find("changed since the grid was built"),
              std::string::npos);
}

} // namespace
} // namespace c3d
