/**
 * @file
 * Streaming trace replay: the pull interface the simulator admits
 * requests through, with a chunk-buffered `aero-trace/1` file reader so
 * multi-billion-request traces replay in O(chunk) memory, a borrowing
 * adapter over a Trace vector, and a streaming writer. The synthetic
 * generator is the third source (workload/synthetic.hh).
 *
 * `Ssd::run` consumes a TraceStream (ssd/ssd.hh); its `const Trace&`
 * overload replays through a VectorTraceStream.
 */

#ifndef AERO_WORKLOAD_TRACE_IO_STREAM_HH
#define AERO_WORKLOAD_TRACE_IO_STREAM_HH

#include <cstdio>
#include <vector>

#include "workload/trace_io/format.hh"

namespace aero
{

/**
 * Pull interface over an ordered request stream. next() yields records
 * with non-decreasing arrival times; implementations own whatever
 * buffering they need but must never require the full trace resident.
 */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /** Yield the next record; false at end of stream. */
    virtual bool next(TraceRecord &out) = 0;
};

/** In-memory adapter: replays a borrowed Trace vector, which must
 *  outlive the stream. */
class VectorTraceStream : public TraceStream
{
  public:
    explicit VectorTraceStream(const Trace &trace) : records(&trace) {}

    bool
    next(TraceRecord &out) override
    {
        if (cursor >= records->size())
            return false;
        out = (*records)[cursor++];
        return true;
    }

  private:
    const Trace *records;
    std::size_t cursor = 0;
};

/**
 * Chunk-buffered reader for `aero-trace/1` files. Memory use is one
 * kChunkRecords-record buffer regardless of trace length; the
 * high-water mark is observable (maxBufferedRecords) so tests can
 * assert the bounded-memory contract instead of trusting it.
 *
 * Error policy mirrors Json::parse's split surface: OnError::Fatal
 * (the default, for CLIs and the simulator) dies with a positioned
 * message; OnError::Flag makes next() return false with the TraceError
 * retrievable via error() — the lane the fuzz battery drives.
 */
class FileTraceStream : public TraceStream
{
  public:
    enum class OnError { Fatal, Flag };

    static constexpr std::size_t kChunkRecords = 4096;

    explicit FileTraceStream(const std::string &path,
                             OnError mode = OnError::Fatal);
    ~FileTraceStream() override;

    FileTraceStream(const FileTraceStream &) = delete;
    FileTraceStream &operator=(const FileTraceStream &) = delete;

    bool next(TraceRecord &out) override;

    /** Header fields (valid once ok()). */
    const trace_io::TraceFileHeader &header() const { return head; }
    std::uint32_t pageKB() const { return head.pageKB; }
    bool hasTenantTags() const { return head.hasTenantTags(); }

    /** False after any open/decode failure (OnError::Flag only). */
    bool ok() const { return !failed; }
    const trace_io::TraceError &error() const { return err; }

    std::uint64_t recordsRead() const { return recordCount; }

    /** Most records ever resident in the chunk buffer. */
    std::size_t maxBufferedRecords() const { return bufferHighWater; }

  private:
    bool refill();
    bool fail(std::string message);

    std::string path;
    OnError mode;
    std::FILE *file = nullptr;
    trace_io::TraceFileHeader head;
    trace_io::TraceError err;
    bool failed = false;

    std::vector<std::uint8_t> buffer;  //!< raw bytes of the current chunk
    std::size_t bufRecords = 0;        //!< decoded records in the chunk
    std::size_t bufCursor = 0;         //!< next record within the chunk
    std::size_t bufferHighWater = 0;
    std::size_t tornTail = 0;          //!< trailing bytes of a torn record
    std::uint64_t recordCount = 0;     //!< records yielded so far
    Tick lastArrival = 0;
};

/**
 * Streaming `aero-trace/1` writer: header up front, records appended
 * one fwrite at a time (the format is append-friendly — no count to
 * back-patch). Arrival monotonicity and record validity are enforced at
 * append time, so a generator bug dies at the write, not at replay.
 * close() flushes and is fatal on a short write; the destructor closes
 * too but swallows nothing — it panics on failure, so call close() for
 * a clean error path.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, std::uint32_t page_kb,
                bool tenant_tags);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceRecord &rec);
    std::uint64_t recordsWritten() const { return count; }
    void close();

  private:
    std::string path;
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
    Tick lastArrival = 0;
};

/** Write a whole in-memory Trace as one `aero-trace/1` file. */
void writeTraceFile(const Trace &trace, const std::string &path,
                    std::uint32_t page_kb, bool tenant_tags = false);

/**
 * One bounded-memory pass over any stream: the Table-3 aggregates for
 * the whole stream plus a per-tenant breakdown (index = TenantId;
 * empty when @p per_tenant is false), accumulated by TraceStatsAcc.
 */
struct StreamTraceStats
{
    TraceStats total;
    std::vector<TraceStats> perTenant;
};

StreamTraceStats computeStreamStats(TraceStream &stream,
                                    std::uint32_t page_kb,
                                    bool per_tenant = true);

} // namespace aero

#endif // AERO_WORKLOAD_TRACE_IO_STREAM_HH
