#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// Innermost open recorded span of this thread (0 = none) and its op.
thread_local std::int64_t t_open_span = 0;
thread_local std::int64_t t_open_op = -1;

} // namespace

std::int64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ++lastId_;
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    return out;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const SpanRecord &s : spans_)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"id\":%lld,\"parent\":%lld,\"op\":%lld}\n",
                     s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.op));
    return std::fclose(f) == 0;
}

Span::Span(Tracer *tracer, std::string name, std::int64_t op)
    : tracer_(tracer), name_(std::move(name)), op_(op)
{
    if (tracer_) {
        id_ = tracer_->nextId();
        parent_ = t_open_span;
        if (op_ < 0)
            op_ = t_open_op;
        t_open_span = id_;
        t_open_op = op_;
    }
    start_ = Clock::now();
}

Span::~Span() { end(); }

double
Span::end()
{
    if (seconds_ >= 0.0)
        return seconds_;
    const Clock::time_point stop = Clock::now();
    seconds_ = seconds(start_, stop);
    if (tracer_) {
        SpanRecord rec;
        rec.name = name_;
        rec.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          start_ - tracer_->epoch())
                          .count();
        rec.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        stop - tracer_->epoch())
                        .count();
        rec.id = id_;
        rec.parent = parent_;
        rec.op = op_;
        tracer_->record(std::move(rec));
        t_open_span = parent_;
        // The parent's op: spans only nest inside their own operation.
        t_open_op = parent_ == 0 ? -1 : op_;
    }
    return seconds_;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    t.value = v.back();
    t.percentile = 100.0;
    if (n <= 10)
        return t;
    // The sample with exactly ten above it, until p50 has ten above it;
    // then p50 or p90, whose nearest ranks leave floor(n / 2) and
    // floor(n / 10) samples above them.
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    for (size_t d : {2, 10}) {
        if (n / d < 10)
            break;
        t.value = v[n - n / d - 1];
        t.percentile = 100.0 * (1.0 - 1.0 / static_cast<double>(d));
    }
    return t;
}

} // namespace perfbench
