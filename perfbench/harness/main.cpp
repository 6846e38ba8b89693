// perfbench: the repository's benchmark harness. Prints one JSON object as
// the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// End-to-end metrics without --trace, per-layer metrics with --trace 1.
//
//   perfbench --workload standard_serial|regression_suite
//             --seed N --seconds S --trace 0|1 [--out DIR] [--sod FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    perfbench::g_process_start_ns = perfbench::now_ns();
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::stoull(val);
        } else if (key == "--seconds") {
            opt.seconds = std::stod(val);
        } else if (key == "--trace") {
            opt.trace = val == "1";
        } else if (key == "--out") {
            opt.out_dir = val;
        } else if (key == "--sod") {
            opt.sod_case = val;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
            return 2;
        }
    }
    if ((argc - 1) % 2 != 0) {
        std::fprintf(stderr, "perfbench: arguments come in --key value pairs\n");
        return 2;
    }
    perfbench::trace::set_enabled(opt.trace);
    try {
        std::filesystem::create_directories(opt.out_dir);
        perfbench::Result r;
        if (opt.workload == "standard_serial") {
            r = perfbench::run_standard_serial(opt);
        } else if (opt.workload == "regression_suite") {
            r = perfbench::run_regression_suite(opt);
        } else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
            return 2;
        }
        if (opt.trace) {
            const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                                     std::to_string(opt.seed) + ".json";
            perfbench::trace::write_chrome(path);
            std::fprintf(stderr, "perfbench: chrome trace written to %s\n", path.c_str());
            for (const auto& [name, ns] : perfbench::trace::self_times_ns()) {
                std::fprintf(stderr, "perfbench: self time %-40s %12.3f ms\n", name.c_str(),
                             ns * 1e-6);
            }
        }
        for (const std::string& note : r.notes) {
            std::fprintf(stderr, "perfbench: failed: %s\n", note.c_str());
        }
        std::printf("%s\n", r.json().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
