/**
 * @file
 * The streaming trace subsystem: `aero-trace/1` format encode/decode,
 * the chunk-buffered file reader (including its malformed-input battery
 * and a randomized-mutation fuzz pass), the MSRC CSV importer, the
 * tenant-mix merge layer, and the bounded-memory replay contract for
 * multi-million-request traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "exp/sweep_impl.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io/import.hh"
#include "workload/trace_io/stream.hh"
#include "workload/trace_io/tenant.hh"

using namespace aero;

namespace
{

/** A /tmp path removed when the guard leaves scope. */
struct TempFile
{
    explicit TempFile(const std::string &name) : path("/tmp/" + name) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

SyntheticConfig
smallSyntheticConfig(std::uint64_t requests = 3000, std::uint64_t seed = 7)
{
    SyntheticConfig cfg;
    cfg.spec = workloadByName("prxy");
    cfg.footprintPages = 1 << 14;
    cfg.numRequests = requests;
    cfg.seed = seed;
    return cfg;
}

Trace
smallSyntheticTrace(std::uint64_t requests = 3000, std::uint64_t seed = 7)
{
    return generateTrace(smallSyntheticConfig(requests, seed));
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << path;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.arrival == b.arrival && a.op == b.op &&
           a.startPage == b.startPage && a.pages == b.pages &&
           a.tenant == b.tenant;
}

} // namespace

// ---------------------------------------------------------------------------
// Format layer
// ---------------------------------------------------------------------------

TEST(TraceFormat, RecordEncodeDecodeRoundTrips)
{
    std::mt19937_64 rng(42);
    Tick arrival = 0;
    for (int i = 0; i < 1000; ++i) {
        TraceRecord rec;
        arrival += rng() % 100000;
        rec.arrival = arrival;
        rec.op = rng() % 2 == 0 ? IoOp::Read : IoOp::Write;
        rec.startPage = rng() % (1ULL << 40);
        rec.pages = static_cast<std::uint32_t>(1 + rng() % 4096);
        rec.tenant = static_cast<TenantId>(rng() % 16);
        std::array<std::uint8_t, trace_io::kRecordBytes> raw;
        trace_io::encodeRecord(rec, raw);
        TraceRecord out;
        std::string err;
        ASSERT_TRUE(trace_io::decodeRecord(raw.data(), &out, &err)) << err;
        EXPECT_TRUE(sameRecord(rec, out));
    }
}

TEST(TraceFormat, DecodeRejectsStructurallyInvalidRecords)
{
    TraceRecord rec;
    rec.pages = 4;
    std::array<std::uint8_t, trace_io::kRecordBytes> raw;
    trace_io::encodeRecord(rec, raw);
    TraceRecord out;
    std::string err;

    auto mutated = raw;
    mutated[20] = 2;  // op
    EXPECT_FALSE(trace_io::decodeRecord(mutated.data(), &out, &err));
    EXPECT_NE(err.find("op"), std::string::npos);

    mutated = raw;
    mutated[21] = 1;  // reserved
    EXPECT_FALSE(trace_io::decodeRecord(mutated.data(), &out, &err));
    EXPECT_NE(err.find("reserved"), std::string::npos);

    mutated = raw;
    for (int i = 16; i < 20; ++i)
        mutated[i] = 0;  // pages = 0
    EXPECT_FALSE(trace_io::decodeRecord(mutated.data(), &out, &err));
    EXPECT_NE(err.find("zero page count"), std::string::npos);

    mutated = raw;
    for (int i = 8; i < 16; ++i)
        mutated[i] = 0xff;  // startPage = UINT64_MAX with pages = 4
    EXPECT_FALSE(trace_io::decodeRecord(mutated.data(), &out, &err));
    EXPECT_NE(err.find("overflows"), std::string::npos);
}

TEST(TraceFormat, HeaderEncodeDecodeRoundTripsAndValidates)
{
    trace_io::TraceFileHeader header;
    header.flags = trace_io::kFlagTenantTags;
    header.pageKB = 4;
    std::array<std::uint8_t, trace_io::kHeaderBytes> raw;
    trace_io::encodeHeader(header, raw);
    trace_io::TraceFileHeader out;
    std::string err;
    ASSERT_TRUE(trace_io::decodeHeader(raw.data(), &out, &err)) << err;
    EXPECT_EQ(out.flags, header.flags);
    EXPECT_EQ(out.pageKB, 4u);
    EXPECT_TRUE(out.hasTenantTags());

    auto mutated = raw;
    mutated[0] = 'X';
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos);

    mutated = raw;
    mutated[8] = 9;  // version
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("version"), std::string::npos);

    mutated = raw;
    mutated[12] = 23;  // record size
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("record size"), std::string::npos);

    mutated = raw;
    mutated[17] = 0x80;  // unknown flag bit
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("flag"), std::string::npos);

    mutated = raw;
    for (int i = 20; i < 24; ++i)
        mutated[i] = 0;  // page size 0
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("page size"), std::string::npos);

    mutated = raw;
    mutated[30] = 1;  // reserved
    EXPECT_FALSE(trace_io::decodeHeader(mutated.data(), &out, &err));
    EXPECT_NE(err.find("reserved"), std::string::npos);
}

TEST(TraceFormat, PageSpanRoundsSubPageRequestsUp)
{
    constexpr std::uint32_t kPage = 16 * 1024;
    trace_io::PageSpan span;

    // Wholly inside one page.
    ASSERT_TRUE(trace_io::pageSpanForBytes(8192, 4096, kPage, &span));
    EXPECT_EQ(span.startPage, 0u);
    EXPECT_EQ(span.pages, 1u);

    // A 8-byte request straddling the page-0/page-1 boundary occupies
    // both pages — the explicit contract for sub-page CSV requests.
    ASSERT_TRUE(trace_io::pageSpanForBytes(kPage - 4, 8, kPage, &span));
    EXPECT_EQ(span.startPage, 0u);
    EXPECT_EQ(span.pages, 2u);

    // Exactly page-aligned.
    ASSERT_TRUE(trace_io::pageSpanForBytes(kPage, kPage, kPage, &span));
    EXPECT_EQ(span.startPage, 1u);
    EXPECT_EQ(span.pages, 1u);

    // One byte past a whole page spills into the next.
    ASSERT_TRUE(
        trace_io::pageSpanForBytes(2 * kPage, kPage + 1, kPage, &span));
    EXPECT_EQ(span.startPage, 2u);
    EXPECT_EQ(span.pages, 2u);

    // Zero-size and overflowing ranges are rejected.
    EXPECT_FALSE(trace_io::pageSpanForBytes(0, 0, kPage, &span));
    EXPECT_FALSE(trace_io::pageSpanForBytes(
        std::numeric_limits<std::uint64_t>::max(), 2, kPage, &span));
}

// ---------------------------------------------------------------------------
// Writer / reader round trip
// ---------------------------------------------------------------------------

TEST(TraceStreamIo, WriteStreamRoundTripsAtOneAndFourThreads)
{
    const Trace trace = smallSyntheticTrace();
    TempFile file("aero_trace_roundtrip.trc");
    writeTraceFile(trace, file.path, 16, /*tenant_tags=*/false);

    // Four workers stream the same file independently (own reader each);
    // every pass must reproduce the written records exactly.
    for (const int threads : {1, 4}) {
        std::vector<int> lanes(static_cast<std::size_t>(threads));
        const auto oks = parallelMap(
            lanes,
            [&](int) {
                FileTraceStream stream(file.path);
                EXPECT_EQ(stream.pageKB(), 16u);
                EXPECT_FALSE(stream.hasTenantTags());
                TraceRecord rec;
                std::size_t i = 0;
                while (stream.next(rec)) {
                    if (i >= trace.size() || !sameRecord(rec, trace[i]))
                        return false;
                    ++i;
                }
                return i == trace.size() &&
                       stream.recordsRead() == trace.size();
            },
            threads);
        for (const auto ok : oks)
            EXPECT_TRUE(ok);
    }
}

TEST(TraceStreamIo, StreamStatsMatchVectorStatsExactly)
{
    const SyntheticConfig cfg = smallSyntheticConfig(2000, 13);
    const Trace trace = generateTrace(cfg);
    TempFile file("aero_trace_stats.trc");
    writeTraceFile(trace, file.path, 16);

    SyntheticTraceStream synthetic(cfg);
    const TraceStats vec = computeStreamStats(synthetic, 16).total;
    FileTraceStream stream(file.path);
    const StreamTraceStats st = computeStreamStats(stream, 16);
    EXPECT_EQ(st.total.requests, vec.requests);
    EXPECT_EQ(st.total.readRatio, vec.readRatio);
    EXPECT_EQ(st.total.avgReqSizeKB, vec.avgReqSizeKB);
    EXPECT_EQ(st.total.avgInterArrivalMs, vec.avgInterArrivalMs);
    EXPECT_EQ(st.total.maxPage, vec.maxPage);
    // Single-tenant trace: the tenant-0 bucket IS the total.
    ASSERT_EQ(st.perTenant.size(), 1u);
    EXPECT_EQ(st.perTenant[0].requests, vec.requests);

    // And both equal a direct recount of the records.
    std::size_t reads = 0;
    Lpn max_page = 0;
    for (const TraceRecord &r : trace) {
        reads += r.op == IoOp::Read;
        max_page = std::max<Lpn>(max_page, r.startPage + r.pages - 1);
    }
    EXPECT_EQ(vec.requests, trace.size());
    EXPECT_EQ(vec.readRatio, static_cast<double>(reads) /
                                 static_cast<double>(trace.size()));
    EXPECT_EQ(vec.maxPage, max_page);
}

TEST(TraceStreamIo, WriterEnforcesValidityAtAppendTime)
{
    TempFile file("aero_trace_writer_checks.trc");
    EXPECT_DEATH(
        {
            TraceWriter w(file.path, 16, false);
            w.append({100, IoOp::Read, 0, 1, 0});
            w.append({50, IoOp::Read, 0, 1, 0});
        },
        "out of order");
    EXPECT_DEATH(
        {
            TraceWriter w(file.path, 16, false);
            w.append({0, IoOp::Read, 0, 0, 0});
        },
        "zero page count");
}

// ---------------------------------------------------------------------------
// Malformed-input battery (reader, OnError::Flag)
// ---------------------------------------------------------------------------

TEST(TraceStreamMalformed, TruncatedHeaderIsRejectedWithPosition)
{
    TempFile file("aero_trace_truncated_header.trc");
    const Trace trace = smallSyntheticTrace(10);
    writeTraceFile(trace, file.path, 16);
    const std::string bytes = readAll(file.path);
    writeAll(file.path, bytes.substr(0, 10));

    FileTraceStream stream(file.path, FileTraceStream::OnError::Flag);
    EXPECT_FALSE(stream.ok());
    EXPECT_NE(stream.error().message.find("truncated header"),
              std::string::npos);
    EXPECT_EQ(stream.error().byteOffset, 10u);
    TraceRecord rec;
    EXPECT_FALSE(stream.next(rec));
}

TEST(TraceStreamMalformed, TornFinalRecordIsDetected)
{
    TempFile file("aero_trace_torn_tail.trc");
    const Trace trace = smallSyntheticTrace(10);
    writeTraceFile(trace, file.path, 16);
    const std::string bytes = readAll(file.path);
    // Chop 7 bytes off the final record: a mid-append crash.
    writeAll(file.path, bytes.substr(0, bytes.size() - 7));

    FileTraceStream stream(file.path, FileTraceStream::OnError::Flag);
    ASSERT_TRUE(stream.ok());
    TraceRecord rec;
    std::size_t n = 0;
    while (stream.next(rec))
        ++n;
    EXPECT_EQ(n, trace.size() - 1);  // every whole record still streams
    EXPECT_FALSE(stream.ok());
    EXPECT_NE(stream.error().message.find("torn final record"),
              std::string::npos);
    EXPECT_EQ(stream.error().record, trace.size());
    EXPECT_NE(stream.error().toString().find("byte"), std::string::npos);
}

TEST(TraceStreamMalformed, OutOfOrderArrivalsAreRejected)
{
    TempFile file("aero_trace_ooo.trc");
    // Hand-assemble the file: the writer would refuse to produce it.
    trace_io::TraceFileHeader header;
    header.pageKB = 16;
    std::array<std::uint8_t, trace_io::kHeaderBytes> hraw;
    trace_io::encodeHeader(header, hraw);
    std::string bytes(reinterpret_cast<const char *>(hraw.data()),
                      hraw.size());
    std::array<std::uint8_t, trace_io::kRecordBytes> rraw;
    trace_io::encodeRecord({2000, IoOp::Read, 0, 1, 0}, rraw);
    bytes.append(reinterpret_cast<const char *>(rraw.data()), rraw.size());
    trace_io::encodeRecord({1000, IoOp::Read, 0, 1, 0}, rraw);
    bytes.append(reinterpret_cast<const char *>(rraw.data()), rraw.size());
    writeAll(file.path, bytes);

    FileTraceStream stream(file.path, FileTraceStream::OnError::Flag);
    TraceRecord rec;
    EXPECT_TRUE(stream.next(rec));
    EXPECT_FALSE(stream.next(rec));
    EXPECT_FALSE(stream.ok());
    EXPECT_NE(stream.error().message.find("out-of-order"),
              std::string::npos);
    EXPECT_EQ(stream.error().record, 2u);
}

TEST(TraceStreamMalformed, FatalModeDiesWithPositionedMessage)
{
    TempFile file("aero_trace_fatal.trc");
    writeAll(file.path, "not a trace at all, clearly");
    EXPECT_DEATH(FileTraceStream stream(file.path), "trace file");
    EXPECT_DEATH(FileTraceStream stream("/nonexistent/path.trc"),
                 "cannot open");
}

TEST(TraceStreamMalformed, RandomizedMutationsNeverCrashAndPosition)
{
    // The trace analog of the JSON parser's randomized-mutation fuzz:
    // flip one byte of a valid file at a random position; whatever the
    // reader rejects must carry an in-range byte offset, and nothing may
    // crash. Many mutations keep the file valid (payload bytes) — the
    // floor asserts the mutator actually bites.
    TempFile file("aero_trace_fuzz.trc");
    const Trace trace = smallSyntheticTrace(64, 3);
    writeTraceFile(trace, file.path, 16);
    const std::string pristine = readAll(file.path);

    std::mt19937_64 rng(0x5eed);
    int rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::string bytes = pristine;
        const std::size_t pos = rng() % bytes.size();
        const char flip = static_cast<char>(rng() % 256);
        if (bytes[pos] == flip)
            continue;
        bytes[pos] = flip;
        writeAll(file.path, bytes);

        FileTraceStream stream(file.path,
                               FileTraceStream::OnError::Flag);
        TraceRecord rec;
        std::uint64_t streamed = 0;
        while (stream.next(rec))
            ++streamed;
        if (stream.ok()) {
            EXPECT_EQ(streamed, trace.size());
            continue;
        }
        rejected += 1;
        EXPECT_LE(stream.error().byteOffset, bytes.size());
        EXPECT_FALSE(stream.error().toString().empty());
        EXPECT_LE(streamed, trace.size());
    }
    EXPECT_GT(rejected, 50);
}

// ---------------------------------------------------------------------------
// MSRC CSV importer
// ---------------------------------------------------------------------------

namespace
{

/** Import CSV text through the flag-mode surface into a Trace. */
bool
importString(const std::string &csv, Trace *out,
             trace_io::TraceError *err,
             MsrcImportOptions opts = MsrcImportOptions{})
{
    std::istringstream in(csv);
    out->clear();
    return importMsrcCsv(
        in, opts, [&](const TraceRecord &rec) { out->push_back(rec); },
        nullptr, err);
}

} // namespace

TEST(TraceImport, ParsesMsrcLinesAndRoundsPages)
{
    // 16 KiB pages: the third line straddles the page-0/page-1 boundary
    // with an 8-byte request and must round to two pages.
    const std::string csv =
        "128166372003061629,src1,0,Read,8192,4096,321\n"
        "128166372003062000,src1,0,Write,16384,16384,502\n"
        "128166372003065000,src1,0,read,16380,8,115\n";
    Trace out;
    trace_io::TraceError err;
    ASSERT_TRUE(importString(csv, &out, &err)) << err.toString();
    ASSERT_EQ(out.size(), 3u);

    EXPECT_EQ(out[0].arrival, 0u);  // rebased to zero
    EXPECT_EQ(out[0].op, IoOp::Read);
    EXPECT_EQ(out[0].startPage, 0u);
    EXPECT_EQ(out[0].pages, 1u);

    EXPECT_EQ(out[1].arrival, 371u * 100u);  // 100 ns filetime ticks
    EXPECT_EQ(out[1].op, IoOp::Write);
    EXPECT_EQ(out[1].startPage, 1u);
    EXPECT_EQ(out[1].pages, 1u);

    EXPECT_EQ(out[2].op, IoOp::Read);  // case-insensitive type
    EXPECT_EQ(out[2].startPage, 0u);
    EXPECT_EQ(out[2].pages, 2u);  // sub-page straddle rounds to both
}

TEST(TraceImport, AcceptsCrlfAndBlankLines)
{
    const std::string csv =
        "1000,h,0,Read,0,512,9\r\n"
        "\r\n"
        "2000,h,0,Write,16384,512,9\r\n";
    Trace out;
    trace_io::TraceError err;
    ASSERT_TRUE(importString(csv, &out, &err)) << err.toString();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].startPage, 1u);
}

TEST(TraceImport, RejectsMalformedLinesWithLineNumbers)
{
    Trace out;
    trace_io::TraceError err;

    EXPECT_FALSE(importString("1000,h,0,Read,0,512\nbogus\n", &out, &err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_NE(err.message.find("6 comma-separated fields"),
              std::string::npos);
    EXPECT_NE(err.toString().find("line 2"), std::string::npos);

    EXPECT_FALSE(
        importString("abc,h,0,Read,0,512,9\n", &out, &err));
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.message.find("timestamp"), std::string::npos);

    EXPECT_FALSE(
        importString("1000,h,0,Erase,0,512,9\n", &out, &err));
    EXPECT_NE(err.message.find("unknown request type"),
              std::string::npos);

    EXPECT_FALSE(
        importString("1000,h,0,Read,0,0,9\n", &out, &err));
    EXPECT_NE(err.message.find("zero-byte"), std::string::npos);

    // Out-of-order timestamps are rejected, naming the offending line.
    EXPECT_FALSE(importString("2000,h,0,Read,0,512,9\n"
                              "1000,h,0,Read,0,512,9\n",
                              &out, &err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_NE(err.message.find("out-of-order"), std::string::npos);

    // A 21-digit offset overflows u64 and must be caught, not wrapped.
    EXPECT_FALSE(importString(
        "1000,h,0,Read,184467440737095516160,512,9\n", &out, &err));
    EXPECT_NE(err.message.find("offset"), std::string::npos);

    // An in-range offset whose byte span overflows is also rejected.
    EXPECT_FALSE(importString(
        "1000,h,0,Read,18446744073709551615,512,9\n", &out, &err));
    EXPECT_NE(err.message.find("overflows"), std::string::npos);
}

TEST(TraceImport, RandomizedMutationsRejectCleanly)
{
    const std::string pristine =
        "1000,host,0,Read,8192,4096,10\n"
        "2000,host,0,Write,16384,16384,20\n"
        "3000,host,0,Read,32768,512,30\n"
        "4000,host,0,Write,65536,8192,40\n";
    std::mt19937_64 rng(77);
    const char junk[] = {',', 'x', '-', '.', ' ', '\x01', '9', '\0'};
    int rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::string csv = pristine;
        const std::size_t pos = rng() % csv.size();
        csv[pos] = junk[rng() % sizeof(junk)];
        Trace out;
        trace_io::TraceError err;
        if (importString(csv, &out, &err))
            continue;
        rejected += 1;
        EXPECT_GE(err.line, 1u) << csv;
        EXPECT_LE(err.line, 4u) << csv;
        EXPECT_FALSE(err.toString().empty());
    }
    EXPECT_GT(rejected, 100);
}

TEST(TraceImport, FileImportRoundTripsThroughBinaryFormat)
{
    TempFile csv("aero_import_rt.csv");
    TempFile trc("aero_import_rt.trc");
    writeAll(csv.path, "1000,h,0,Read,8192,4096,9\n"
                       "2000,h,0,Write,16380,8,9\n"
                       "3000,h,0,Read,1048576,65536,9\n");
    MsrcImportOptions opts;
    opts.tenant = 3;
    const ImportSummary summary =
        importMsrcCsvFile(csv.path, trc.path, opts);
    EXPECT_EQ(summary.records, 3u);
    EXPECT_EQ(summary.reads, 2u);
    EXPECT_EQ(summary.writes, 1u);

    FileTraceStream stream(trc.path);
    EXPECT_TRUE(stream.hasTenantTags());
    TraceRecord rec;
    ASSERT_TRUE(stream.next(rec));
    EXPECT_EQ(rec.tenant, 3u);
    ASSERT_TRUE(stream.next(rec));
    EXPECT_EQ(rec.pages, 2u);  // 8 bytes straddling the page boundary
    ASSERT_TRUE(stream.next(rec));
    EXPECT_EQ(rec.pages, 4u);  // 64 KiB = four 16-KiB pages
    EXPECT_FALSE(stream.next(rec));
    EXPECT_TRUE(stream.ok());
}

// ---------------------------------------------------------------------------
// Tenant mix
// ---------------------------------------------------------------------------

TEST(TenantMix, MergesByArrivalWithStableTieBreak)
{
    const Trace a = {{100, IoOp::Read, 0, 1, 0}, {300, IoOp::Read, 1, 1, 0}};
    const Trace b = {{100, IoOp::Write, 2, 1, 0}, {200, IoOp::Write, 3, 1, 0}};
    std::vector<std::unique_ptr<TraceStream>> streams;
    streams.push_back(std::make_unique<VectorTraceStream>(a));
    streams.push_back(std::make_unique<VectorTraceStream>(b));
    TenantMix mix(std::move(streams));
    EXPECT_EQ(mix.tenantCount(), 2u);

    TraceRecord rec;
    // Tie at t=100: tenant 0 wins (stable, lowest index).
    ASSERT_TRUE(mix.next(rec));
    EXPECT_EQ(rec.tenant, 0u);
    EXPECT_EQ(rec.startPage, 0u);
    ASSERT_TRUE(mix.next(rec));
    EXPECT_EQ(rec.tenant, 1u);
    EXPECT_EQ(rec.startPage, 2u);
    ASSERT_TRUE(mix.next(rec));
    EXPECT_EQ(rec.tenant, 1u);
    EXPECT_EQ(rec.arrival, 200u);
    ASSERT_TRUE(mix.next(rec));
    EXPECT_EQ(rec.tenant, 0u);
    EXPECT_EQ(rec.arrival, 300u);
    EXPECT_FALSE(mix.next(rec));
}

TEST(TenantMix, SpecParsingAndValidation)
{
    const auto sources =
        parseTenantMixSpec("prxy:2000:7,hm,@/data/web.trc");
    ASSERT_EQ(sources.size(), 3u);
    EXPECT_EQ(sources[0].preset, "prxy");
    EXPECT_EQ(sources[0].requests, 2000u);
    EXPECT_TRUE(sources[0].hasSeed);
    EXPECT_EQ(sources[0].seed, 7u);
    EXPECT_EQ(sources[1].preset, "hm");
    EXPECT_EQ(sources[1].requests, 0u);
    EXPECT_FALSE(sources[1].hasSeed);
    EXPECT_EQ(sources[2].tracePath, "/data/web.trc");

    EXPECT_DEATH(parseTenantMixSpec(""), "empty");
    EXPECT_DEATH(parseTenantMixSpec("prxy,,hm"), "empty entry");
    EXPECT_DEATH(parseTenantMixSpec("prxy:abc"), "not a number");
    EXPECT_DEATH(parseTenantMixSpec("prxy:0"), "zero request count");
    EXPECT_DEATH(parseTenantMixSpec("prxy:1:2:3"), "too many fields");
    EXPECT_DEATH(parseTenantMixSpec("@"), "empty trace path");
    // Unknown presets fail at open time via workloadByName.
    SyntheticConfig base;
    TenantSource bogus;
    bogus.preset = "nope";
    EXPECT_DEATH(openTenantSource(bogus, base), "unknown workload");
}

TEST(TenantMix, PerTenantMetricsPartitionTheGlobalCounters)
{
    SsdConfig cfg = SsdConfig::tiny();
    Ssd ssd(cfg);
    ssd.metrics().enableTenantTracking(2);

    SyntheticConfig base;
    base.footprintPages = ssd.config().logicalPages();
    base.pageSizeKB = cfg.pageSizeKB;
    base.numRequests = 400;
    std::vector<std::unique_ptr<TraceStream>> streams;
    for (const std::uint64_t seed : {11ULL, 23ULL}) {
        SyntheticConfig wc = base;
        wc.spec = workloadByName("hm");
        wc.seed = seed;
        streams.push_back(std::make_unique<SyntheticTraceStream>(wc));
    }
    TenantMix mix(std::move(streams));
    ssd.run(mix);

    const SsdMetrics &m = ssd.metrics();
    ASSERT_EQ(m.tenants.size(), 2u);
    EXPECT_EQ(m.tenants[0].reads + m.tenants[1].reads, m.reads);
    EXPECT_EQ(m.tenants[0].writes + m.tenants[1].writes, m.writes);
    EXPECT_GT(m.tenants[0].reads, 0u);
    EXPECT_GT(m.tenants[1].reads, 0u);
    EXPECT_EQ(m.tenants[0].readLatency.count() +
                  m.tenants[1].readLatency.count(),
              m.readLatency.count());
}

// ---------------------------------------------------------------------------
// Replay equivalence and bounded memory
// ---------------------------------------------------------------------------

TEST(TraceStreamReplay, FileStreamReplayMatchesVectorReplayExactly)
{
    const Trace trace = smallSyntheticTrace(1500, 21);
    TempFile file("aero_trace_replay.trc");
    writeTraceFile(trace, file.path, 16);

    SsdConfig cfg = SsdConfig::tiny();
    Ssd vec(cfg);
    vec.run(trace);
    Ssd streamed(cfg);
    FileTraceStream stream(file.path);
    streamed.run(stream);

    const SsdMetrics &a = vec.metrics();
    const SsdMetrics &b = streamed.metrics();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.simulatedTime, b.simulatedTime);
    EXPECT_EQ(a.readLatency.percentile(0.999),
              b.readLatency.percentile(0.999));
    EXPECT_EQ(a.writeLatency.percentile(0.999),
              b.writeLatency.percentile(0.999));
}

TEST(TraceStreamReplay, SyntheticStreamReplayMatchesVectorReplayExactly)
{
    SsdConfig cfg = SsdConfig::tiny();
    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = cfg.logicalPages();
    wc.numRequests = 3000;
    wc.seed = 17;

    Ssd vec(cfg);
    vec.run(generateTrace(wc));
    Ssd streamed(cfg);
    SyntheticTraceStream stream(wc);
    streamed.run(stream);

    const SsdMetrics &a = vec.metrics();
    const SsdMetrics &b = streamed.metrics();
    EXPECT_EQ(a.reads + a.writes, wc.numRequests);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.simulatedTime, b.simulatedTime);
    EXPECT_EQ(a.readLatency.percentile(0.999),
              b.readLatency.percentile(0.999));
    EXPECT_EQ(a.writeLatency.percentile(0.999),
              b.writeLatency.percentile(0.999));
}

TEST(TraceStreamReplay, TenMillionRecordsStreamInChunkBoundedMemory)
{
    // The acceptance contract: a >=10M-request trace streams end to end
    // while the reader never buffers more than one chunk — the full
    // trace is never materialized (no Trace vector exists anywhere in
    // this test's streaming pass; 10M records would be ~240 MB).
    constexpr std::uint64_t kRecords = 10'000'000;
    TempFile file("aero_trace_10m.trc");
    {
        TraceWriter writer(file.path, 16, false);
        std::mt19937_64 rng(5);
        Tick arrival = 0;
        TraceRecord rec;
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            arrival += rng() % 2000;
            rec.arrival = arrival;
            rec.op = (rng() % 4 == 0) ? IoOp::Write : IoOp::Read;
            rec.startPage = rng() % (1ULL << 30);
            rec.pages = 1 + static_cast<std::uint32_t>(rng() % 8);
            writer.append(rec);
        }
        writer.close();
        EXPECT_EQ(writer.recordsWritten(), kRecords);
    }

    FileTraceStream stream(file.path);
    const StreamTraceStats stats =
        computeStreamStats(stream, 16, /*per_tenant=*/false);
    EXPECT_EQ(stats.total.requests, kRecords);
    EXPECT_EQ(stream.recordsRead(), kRecords);
    EXPECT_TRUE(stream.ok());
    EXPECT_GT(stream.maxBufferedRecords(), 0u);
    EXPECT_LE(stream.maxBufferedRecords(), FileTraceStream::kChunkRecords);
}
