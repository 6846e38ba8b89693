#include "toolchain/golden.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace mfc::toolchain {

bool GoldenFile::has(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.first == name) return true;
    }
    return false;
}

const std::vector<double>& GoldenFile::values(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.first == name) return e.second;
    }
    fail("GoldenFile: no entry named '" + name + "'");
}

void GoldenFile::add(std::string name, std::vector<double> values) {
    MFC_REQUIRE(!has(name), "GoldenFile: duplicate entry '" + name + "'");
    MFC_REQUIRE(name.find_first_of(" \t\n") == std::string::npos,
                "GoldenFile: entry name must not contain whitespace");
    entries_.emplace_back(std::move(name), std::move(values));
}

std::string GoldenFile::serialize() const {
    std::string out;
    for (const Entry& e : entries_) {
        out += e.first;
        for (std::size_t i = 0; i < e.second.size(); ++i) {
            const double v = e.second[i];
            MFC_REQUIRE(std::isfinite(v),
                        "GoldenFile: refusing to write non-finite value " +
                            format_sci(v) + " at '" + e.first + "'[" +
                            std::to_string(i) + "]");
            out += ' ';
            out += format_sci(v);
        }
        out += '\n';
    }
    return out;
}

GoldenFile GoldenFile::parse(const std::string& text) {
    GoldenFile g;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (trim(line).empty()) continue;
        const std::vector<std::string> tokens = split_ws(line);
        MFC_REQUIRE(!tokens.empty(), "GoldenFile: empty line token set");
        std::vector<double> values;
        values.reserve(tokens.size() - 1);
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            values.push_back(parse_double(tokens[i]));
        }
        g.add(tokens[0], std::move(values));
    }
    return g;
}

void GoldenFile::save(const std::string& path) const {
    const std::string text = serialize(); // before the file is touched
    std::ofstream out(path);
    MFC_REQUIRE(out.good(), "GoldenFile: cannot write " + path);
    out << text;
}

GoldenFile GoldenFile::load(const std::string& path) {
    std::ifstream in(path);
    MFC_REQUIRE(in.good(), "GoldenFile: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

CompareResult compare_golden(const GoldenFile& reference,
                             const GoldenFile& current, double abs_tol,
                             double rel_tol) {
    CompareResult r;
    for (const auto& [name, ref] : reference.entries()) {
        if (!current.has(name)) {
            r.ok = false;
            ++r.mismatched_values;
            if (r.message.empty()) r.message = "missing output '" + name + "'";
            continue;
        }
        const std::vector<double>& cur = current.values(name);
        if (cur.size() != ref.size()) {
            r.ok = false;
            ++r.mismatched_values;
            if (r.message.empty()) {
                r.message = "size mismatch for '" + name + "': " +
                            std::to_string(ref.size()) + " vs " +
                            std::to_string(cur.size());
            }
            continue;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            // A non-finite value on either side is a mismatch: NaN makes
            // every error comparison below false, so it would pass.
            if (!std::isfinite(cur[i]) || !std::isfinite(ref[i])) {
                r.ok = false;
                ++r.mismatched_values;
                if (r.message.empty()) {
                    r.message = "'" + name + "'[" + std::to_string(i) +
                                "]: non-finite " + format_sci(ref[i]) +
                                " vs " + format_sci(cur[i]);
                }
                continue;
            }
            const double abs_err = std::abs(cur[i] - ref[i]);
            const double denom = std::abs(ref[i]);
            const double rel_err = denom > 0.0 ? abs_err / denom
                                               : (abs_err > 0.0 ? 1.0 : 0.0);
            r.max_abs_err = std::max(r.max_abs_err, abs_err);
            r.max_rel_err = std::max(r.max_rel_err, rel_err);
            if (abs_err > abs_tol && rel_err > rel_tol) {
                r.ok = false;
                ++r.mismatched_values;
                if (r.message.empty()) {
                    r.message = "'" + name + "'[" + std::to_string(i) +
                                "]: " + format_sci(ref[i]) + " vs " +
                                format_sci(cur[i]);
                }
            }
        }
    }
    return r;
}

GoldenFile add_new_variables(const GoldenFile& existing, const GoldenFile& fresh) {
    GoldenFile merged = existing;
    for (const auto& [name, values] : fresh.entries()) {
        if (!merged.has(name)) merged.add(name, values);
    }
    return merged;
}

std::string golden_metadata(const std::string& uuid, const std::string& trace,
                            const std::string& canonical_params) {
    std::string out;
    out += "uuid: " + uuid + "\n";
    out += "trace: " + trace + "\n";
    out += "generator: mfcpp (C++ reproduction of the MFC toolchain)\n";
    out += "precision: double\n";
    out += "tolerance: " + format_sci(kDefaultTolerance) + "\n";
    out += "parameters:\n";
    out += canonical_params;
    return out;
}

} // namespace mfc::toolchain
