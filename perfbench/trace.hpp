/**
 * @file
 * Host-time measurement for the repo benchmark: RAII spans around the
 * calls the driver makes into each layer, an in-memory span log that is
 * written out once at exit, and the order statistics the benchmark
 * reports (median and the highest percentile with ten samples beyond it).
 *
 * A `Span` always measures its own duration (the driver's latency
 * samples come from it); it is *recorded* only when given a `Tracer`,
 * so untraced runs pay two clock reads per span and nothing else.
 */
#ifndef MESHSLICE_PERFBENCH_TRACE_HPP_
#define MESHSLICE_PERFBENCH_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One finished span. Times are nanoseconds since the tracer's epoch;
 *  `parent` is 0 for a root span; `op` is the operation the span
 *  belongs to (-1 outside any operation). */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::int64_t op = -1;
};

/** Thread-safe in-memory span log. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    Clock::time_point epoch() const { return epoch_; }
    std::int64_t nextId();
    void record(SpanRecord span);

    /** Durations in seconds of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;
    size_t size() const;

    /** Write the log as JSONL (one span per line, in completion order);
     *  returns false when the file cannot be written. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::int64_t lastId_ = 0;
    std::vector<SpanRecord> spans_;
};

/**
 * Times one call into a layer. With a non-null tracer the span is
 * recorded when it ends, as a child of the innermost open span of the
 * same thread.
 */
class Span
{
  public:
    Span(Tracer *tracer, std::string name, std::int64_t op = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Rename before the span ends (e.g. to key it by a result). */
    void rename(std::string name) { name_ = std::move(name); }

    /** End the span now (idempotent) and return its duration. */
    double end();

  private:
    Tracer *tracer_;
    std::string name_;
    std::int64_t op_;
    std::int64_t id_ = 0;
    std::int64_t parent_ = 0;
    Clock::time_point start_;
    double seconds_ = -1.0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Tail latency: the highest percentile with at least ten samples above
 * it, capped at p90. From 20 samples on, that is p50 or p90 (nearest
 * rank), whichever is the higher with ten samples above it; from 11 to
 * 19 samples, the sample with exactly ten above it; with ten or fewer,
 * the maximum (reported as percentile 100). The cap: on a shared host
 * the slowest percent of millisecond operations are the ones the host
 * stalled, so p99 and above measure the host rather than the program
 * (perfbench/README.md has the measured spreads).
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    size_t samples = 0;
};
Tail tail(std::vector<double> v);

} // namespace perfbench

#endif // MESHSLICE_PERFBENCH_TRACE_HPP_
