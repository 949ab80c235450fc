#include "workload/trace_io/stream.hh"

#include <limits>

#include "common/logging.hh"

namespace aero
{

// ---------------------------------------------------------------------------
// FileTraceStream
// ---------------------------------------------------------------------------

FileTraceStream::FileTraceStream(const std::string &path_, OnError mode_)
    : path(path_), mode(mode_)
{
    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        fail("cannot open trace file");
        return;
    }
    std::uint8_t raw[trace_io::kHeaderBytes];
    const std::size_t got = std::fread(raw, 1, sizeof(raw), file);
    if (got < sizeof(raw)) {
        err.byteOffset = got;
        fail("truncated header (" + std::to_string(got) + " of " +
             std::to_string(sizeof(raw)) + " bytes)");
        return;
    }
    std::string msg;
    if (!trace_io::decodeHeader(raw, &head, &msg)) {
        fail(std::move(msg));
        return;
    }
    buffer.resize(kChunkRecords * trace_io::kRecordBytes);
}

FileTraceStream::~FileTraceStream()
{
    if (file)
        std::fclose(file);
}

bool
FileTraceStream::fail(std::string message)
{
    err.message = std::move(message);
    failed = true;
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
    if (mode == OnError::Fatal)
        AERO_FATAL("trace file ", path, ": ", err.toString());
    return false;
}

bool
FileTraceStream::refill()
{
    if (tornTail != 0) {
        // Every whole record before the tear has been served; now the
        // partial trailing record (a mid-append crash) is the error.
        err.byteOffset =
            trace_io::kHeaderBytes + recordCount * trace_io::kRecordBytes;
        err.record = recordCount + 1;
        return fail("torn final record (" + std::to_string(tornTail) +
                    " trailing bytes)");
    }
    if (!file)
        return false;
    const std::size_t got =
        std::fread(buffer.data(), 1, buffer.size(), file);
    const std::uint64_t chunk_base =
        trace_io::kHeaderBytes + recordCount * trace_io::kRecordBytes;
    if (got == 0) {
        if (std::ferror(file)) {
            err.byteOffset = chunk_base;
            return fail("read error");
        }
        std::fclose(file);
        file = nullptr;
        return false;
    }
    const std::size_t tail = got % trace_io::kRecordBytes;
    if (tail != 0) {
        if (!std::feof(file)) {
            err.byteOffset = chunk_base;
            return fail("short read mid-file");
        }
        tornTail = tail;
        std::fclose(file);
        file = nullptr;
        if (got < trace_io::kRecordBytes)
            return refill();  // no whole record left: report the tear now
    }
    bufRecords = got / trace_io::kRecordBytes;
    bufCursor = 0;
    if (bufRecords > bufferHighWater)
        bufferHighWater = bufRecords;
    return true;
}

bool
FileTraceStream::next(TraceRecord &out)
{
    if (failed)
        return false;
    if (bufCursor >= bufRecords && !refill())
        return false;
    const std::uint8_t *bytes =
        buffer.data() + bufCursor * trace_io::kRecordBytes;
    std::string msg;
    TraceRecord rec;
    const std::uint64_t offset =
        trace_io::kHeaderBytes + recordCount * trace_io::kRecordBytes;
    if (!trace_io::decodeRecord(bytes, &rec, &msg)) {
        err.byteOffset = offset;
        err.record = recordCount + 1;
        return fail(std::move(msg));
    }
    if (recordCount > 0 && rec.arrival < lastArrival) {
        err.byteOffset = offset;
        err.record = recordCount + 1;
        return fail("out-of-order arrival (" +
                    std::to_string(rec.arrival) + " after " +
                    std::to_string(lastArrival) + ")");
    }
    lastArrival = rec.arrival;
    bufCursor += 1;
    recordCount += 1;
    out = rec;
    return true;
}

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path_, std::uint32_t page_kb,
                         bool tenant_tags)
    : path(path_)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        AERO_FATAL("cannot open trace file for writing: ", path);
    trace_io::TraceFileHeader header;
    header.flags = tenant_tags ? trace_io::kFlagTenantTags : 0;
    header.pageKB = page_kb;
    AERO_CHECK(page_kb > 0, "trace page size must be nonzero");
    std::array<std::uint8_t, trace_io::kHeaderBytes> raw;
    trace_io::encodeHeader(header, raw);
    if (std::fwrite(raw.data(), 1, raw.size(), file) != raw.size())
        AERO_FATAL("short write to trace file: ", path);
}

TraceWriter::~TraceWriter()
{
    if (file)
        close();
}

void
TraceWriter::append(const TraceRecord &rec)
{
    AERO_CHECK(file, "append to a closed TraceWriter: ", path);
    if (rec.pages == 0)
        AERO_FATAL("trace record ", count + 1, " has zero page count");
    if (rec.startPage > std::numeric_limits<Lpn>::max() - rec.pages)
        AERO_FATAL("trace record ", count + 1,
                   " page span overflows 64 bits");
    if (count > 0 && rec.arrival < lastArrival)
        AERO_FATAL("trace record ", count + 1, " arrives out of order (",
                   rec.arrival, " after ", lastArrival, ")");
    lastArrival = rec.arrival;
    std::array<std::uint8_t, trace_io::kRecordBytes> raw;
    trace_io::encodeRecord(rec, raw);
    if (std::fwrite(raw.data(), 1, raw.size(), file) != raw.size())
        AERO_FATAL("short write to trace file: ", path);
    count += 1;
}

void
TraceWriter::close()
{
    AERO_CHECK(file, "double close of TraceWriter: ", path);
    const bool flush_ok = std::fflush(file) == 0;
    const bool close_ok = std::fclose(file) == 0;
    file = nullptr;
    if (!flush_ok || !close_ok)
        AERO_FATAL("short write to trace file: ", path);
}

void
writeTraceFile(const Trace &trace, const std::string &path,
               std::uint32_t page_kb, bool tenant_tags)
{
    TraceWriter writer(path, page_kb, tenant_tags);
    for (const auto &rec : trace)
        writer.append(rec);
    writer.close();
}

// ---------------------------------------------------------------------------
// Streaming stats
// ---------------------------------------------------------------------------

StreamTraceStats
computeStreamStats(TraceStream &stream, std::uint32_t page_kb,
                   bool per_tenant)
{
    TraceStatsAcc total;
    std::vector<TraceStatsAcc> tenants;
    TraceRecord rec;
    while (stream.next(rec)) {
        total.add(rec, page_kb);
        if (per_tenant) {
            if (tenants.size() <= rec.tenant)
                tenants.resize(static_cast<std::size_t>(rec.tenant) + 1);
            tenants[rec.tenant].add(rec, page_kb);
        }
    }
    StreamTraceStats out;
    out.total = total.finalize();
    out.perTenant.reserve(tenants.size());
    for (const auto &acc : tenants)
        out.perTenant.push_back(acc.finalize());
    return out;
}

} // namespace aero
