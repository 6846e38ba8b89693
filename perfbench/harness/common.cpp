#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t g_process_start_ns = 0;

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void Result::check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back(what);
    }
}

std::string Result::json() const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        char buf[64];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!first) s += ", ";
        first = false;
        s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
