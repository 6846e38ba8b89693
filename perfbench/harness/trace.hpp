#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Spans recorded by the harness around its own calls into the program's
/// layers (traced runs only). Each span has a name, start, end, the span
/// that enclosed it on the same thread, and the id of the step (or suite
/// case) it belongs to. Spans are kept in memory and written out as a
/// Chrome trace when the run ends.
struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1; ///< index into the span list, -1 for a root
    int tid = 0;
    long long step = -1;
};

namespace trace {

/// Switch span recording on (traced runs) or off (the default: a span
/// guard then costs one branch).
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Step id stamped on the spans this thread opens from now on.
void set_step(long long step);
/// Label of the calling thread in the written trace (e.g. "rank 1").
void set_thread(int tid);

/// Completed spans in start order.
[[nodiscard]] std::vector<SpanRecord> spans();

/// Self time per span name: its duration minus the part of it covered by
/// its child spans, summed over all spans of that name (ns).
[[nodiscard]] std::map<std::string, double> self_times_ns();

/// Write the spans as Chrome trace-event JSON ("X" events).
void write_chrome(const std::string& path);

} // namespace trace

/// RAII span. The name must be a string literal (it is stored unowned).
class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    int slot_ = -1;
};

/// Run `fn` inside a span named `name` and return its wall time in ns.
template <class Fn>
double timed(const char* name, Fn&& fn) {
    const Span span(name);
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0);
}

} // namespace perfbench
