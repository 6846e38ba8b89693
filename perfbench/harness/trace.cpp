#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>

#include "common.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};

struct Store {
    std::mutex mutex; // guards spans
    std::vector<SpanRecord> spans;
};

Store& store() {
    static Store s;
    return s;
}

struct ThreadState {
    std::vector<int> open; ///< slots of the spans open on this thread
    long long step = -1;
    int tid = 0;
};

thread_local ThreadState t_state;

} // namespace

namespace trace {

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_step(long long step) { t_state.step = step; }
void set_thread(int tid) { t_state.tid = tid; }

std::vector<SpanRecord> spans() {
    Store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<SpanRecord> done;
    for (const SpanRecord& r : s.spans) {
        if (r.end_ns != 0) done.push_back(r);
    }
    return done;
}

std::map<std::string, double> self_times_ns() {
    Store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<double> child(s.spans.size(), 0.0);
    for (const SpanRecord& r : s.spans) {
        if (r.parent >= 0 && r.end_ns != 0) {
            child[static_cast<std::size_t>(r.parent)] +=
                static_cast<double>(r.end_ns - r.start_ns);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
        const SpanRecord& r = s.spans[i];
        if (r.end_ns == 0) continue;
        self[r.name] += static_cast<double>(r.end_ns - r.start_ns) - child[i];
    }
    return self;
}

void write_chrome(const std::string& path) {
    const std::vector<SpanRecord> all = spans();
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    const std::int64_t t0 = all.empty() ? 0 : std::min_element(
        all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
            return a.start_ns < b.start_ns;
        })->start_ns;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord& r = all[i];
        out << "{\"name\": \"" << r.name << "\", \"ph\": \"X\", \"pid\": 1, "
            << "\"tid\": " << r.tid << ", \"ts\": "
            << static_cast<double>(r.start_ns - t0) / 1000.0
            << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) / 1000.0
            << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
            << ", \"step\": " << r.step << "}}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace trace

Span::Span(const char* name) {
    if (!trace::enabled()) return;
    SpanRecord r;
    r.name = name;
    r.tid = t_state.tid;
    r.step = t_state.step;
    r.parent = t_state.open.empty() ? -1 : t_state.open.back();
    Store& s = store();
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        slot_ = static_cast<int>(s.spans.size());
        r.id = slot_;
        s.spans.push_back(r);
    }
    t_state.open.push_back(slot_);
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.spans[static_cast<std::size_t>(slot_)].start_ns = t;
}

Span::~Span() {
    if (slot_ < 0) return;
    const std::int64_t t = now_ns();
    t_state.open.pop_back();
    Store& s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.spans[static_cast<std::size_t>(slot_)].end_ns = t;
}

} // namespace perfbench
