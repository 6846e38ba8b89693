#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Time of process start as seen by the harness (set first thing in main).
extern std::int64_t g_process_start_ns;

[[nodiscard]] double median(std::vector<double> v);
/// Smallest sample (0 for none). The end-to-end times use it: interference
/// from other tenants of a shared host only ever adds time, in bursts and
/// slow spells of seconds to a minute, so the fastest sample of a run
/// follows the program while its median follows the host.
[[nodiscard]] double fastest(const std::vector<double>& v);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// splitmix64: the benchmark's own deterministic generator, so a seed
/// maps to the same inputs on every build of the program.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /// Uniform in [-1, 1).
    double symmetric() {
        return 2.0 * static_cast<double>(next() >> 11) * 0x1.0p-53 - 1.0;
    }

private:
    std::uint64_t s_;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// One run's outcome: the last line of stdout.
struct Result {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; ///< failure messages, printed to stderr

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Count one checked operation; a false `ok` fails it.
    void check(bool ok, const std::string& what);
    [[nodiscard]] std::string json() const;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = "."; ///< scratch directory for goldens and traces
    std::string sod_case = "tests/data/sod.case";
};

} // namespace perfbench
