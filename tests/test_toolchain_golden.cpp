#include "core/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "toolchain/golden.hpp"

namespace mfc::toolchain {
namespace {

GoldenFile sample() {
    GoldenFile g;
    g.add("alpha_rho1", {1.0, 2.0, 3.0});
    g.add("energy", {2.5e-13, -1.0, 0.0});
    return g;
}

TEST(Golden, SerializeParseRoundTrip) {
    const GoldenFile g = sample();
    const GoldenFile back = GoldenFile::parse(g.serialize());
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.values("alpha_rho1"), g.values("alpha_rho1"));
    EXPECT_EQ(back.values("energy"), g.values("energy"));
}

TEST(Golden, OneLinePerVariable) {
    // "Each line in golden.txt contains a flattened array storing a
    // single simulation output" (Section 4.2).
    const std::string text = sample().serialize();
    int lines = 0;
    for (const char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 2);
}

TEST(Golden, FullPrecisionSurvivesRoundTrip) {
    GoldenFile g;
    g.add("x", {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23});
    const GoldenFile back = GoldenFile::parse(g.serialize());
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(back.values("x")[i], g.values("x")[i]); // bitwise
    }
}

TEST(Golden, DuplicateNameThrows) {
    GoldenFile g;
    g.add("a", {1.0});
    EXPECT_THROW(g.add("a", {2.0}), Error);
}

TEST(Golden, NameWithWhitespaceThrows) {
    GoldenFile g;
    EXPECT_THROW(g.add("bad name", {1.0}), Error);
}

TEST(Golden, MissingEntryThrows) {
    EXPECT_THROW((void)sample().values("nope"), Error);
    EXPECT_FALSE(sample().has("nope"));
    EXPECT_TRUE(sample().has("energy"));
}

TEST(Golden, SaveLoadFile) {
    const std::string path = testing::TempDir() + "/golden_test.txt";
    sample().save(path);
    const GoldenFile back = GoldenFile::load(path);
    EXPECT_EQ(back.values("alpha_rho1"), sample().values("alpha_rho1"));
    std::remove(path.c_str());
}

// --- comparison semantics ---------------------------------------------

TEST(Compare, IdenticalFilesPass) {
    const CompareResult r = compare_golden(sample(), sample());
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.mismatched_values, 0);
    EXPECT_DOUBLE_EQ(r.max_abs_err, 0.0);
}

TEST(Compare, FailsOnlyWhenBothTolerancesExceeded) {
    // Default tolerances are 1e-12 absolute AND relative (Section 4.2):
    // a large value with tiny relative error passes even though its
    // absolute error exceeds 1e-12, and vice versa.
    GoldenFile ref, big_rel_ok, small_abs_ok, both_bad;
    ref.add("v", {1.0e6, 1.0e-20});
    big_rel_ok.add("v", {1.0e6 * (1.0 + 1e-14), 1.0e-20}); // abs err 1e-8, rel 1e-14
    small_abs_ok.add("v", {1.0e6, 3.0e-20}); // rel err 2, abs err 2e-20
    both_bad.add("v", {1.0e6 * (1.0 + 1e-9), 1.0e-20});

    EXPECT_TRUE(compare_golden(ref, big_rel_ok).ok);
    EXPECT_TRUE(compare_golden(ref, small_abs_ok).ok);
    const CompareResult r = compare_golden(ref, both_bad);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.mismatched_values, 1);
    EXPECT_FALSE(r.message.empty());
}

TEST(Compare, NonFiniteCurrentValueFails) {
    // NaN makes every error comparison false; it must still count as a
    // mismatch against a finite reference, as must an infinity.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        GoldenFile cur;
        cur.add("alpha_rho1", {1.0, bad, 3.0});
        cur.add("energy", sample().values("energy"));
        const CompareResult r = compare_golden(sample(), cur);
        EXPECT_FALSE(r.ok) << bad;
        EXPECT_EQ(r.mismatched_values, 1) << bad;
        EXPECT_NE(r.message.find("alpha_rho1"), std::string::npos)
            << r.message;
    }
}

TEST(Compare, NonFiniteValueFailsAfterParse) {
    // The same through the golden text format: a run's output written
    // and re-read (e.g. `mfc run` output compared by a script) still
    // cannot pass with NaN or inf in it, on either side.
    const GoldenFile nan_text = GoldenFile::parse(
        "alpha_rho1 1.0 nan 3.0\nenergy 2.5e-13 -1.0 0.0\n");
    EXPECT_TRUE(std::isnan(nan_text.values("alpha_rho1")[1]));
    EXPECT_FALSE(compare_golden(sample(), nan_text).ok);
    EXPECT_FALSE(compare_golden(nan_text, sample()).ok);
    EXPECT_FALSE(compare_golden(nan_text, nan_text).ok);
    const GoldenFile inf_text = GoldenFile::parse(
        "alpha_rho1 1.0 2.0 3.0\nenergy 2.5e-13 -inf 0.0\n");
    EXPECT_FALSE(compare_golden(sample(), inf_text).ok);
}

TEST(Golden, RefusesToWriteNonFiniteValues) {
    GoldenFile g = sample();
    g.add("pressure", {1.0, std::numeric_limits<double>::quiet_NaN()});
    EXPECT_THROW((void)g.serialize(), Error);
    const std::string path = testing::TempDir() + "/golden_nan_test.txt";
    std::remove(path.c_str());
    EXPECT_THROW(g.save(path), Error);
    EXPECT_FALSE(std::ifstream(path).good()); // nothing half-written
}

TEST(Compare, CustomTolerances) {
    GoldenFile ref, cur;
    ref.add("v", {1.0});
    cur.add("v", {1.001});
    EXPECT_FALSE(compare_golden(ref, cur).ok);
    EXPECT_TRUE(compare_golden(ref, cur, 1e-2, 1e-2).ok);
}

TEST(Compare, MissingVariableFails) {
    GoldenFile cur;
    cur.add("alpha_rho1", {1.0, 2.0, 3.0});
    const CompareResult r = compare_golden(sample(), cur);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("energy"), std::string::npos);
}

TEST(Compare, SizeMismatchFails) {
    GoldenFile cur;
    cur.add("alpha_rho1", {1.0, 2.0});
    cur.add("energy", {2.5e-13, -1.0, 0.0});
    const CompareResult r = compare_golden(sample(), cur);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("size mismatch"), std::string::npos);
}

TEST(Compare, ExtraVariablesInCurrentAreIgnored) {
    GoldenFile cur = sample();
    cur.add("new_output", {9.0});
    EXPECT_TRUE(compare_golden(sample(), cur).ok);
}

TEST(Compare, ReportsMaxErrors) {
    GoldenFile ref, cur;
    ref.add("v", {1.0, 2.0});
    cur.add("v", {1.5, 2.0});
    const CompareResult r = compare_golden(ref, cur);
    EXPECT_DOUBLE_EQ(r.max_abs_err, 0.5);
    EXPECT_DOUBLE_EQ(r.max_rel_err, 0.5);
}

TEST(Compare, ZeroReferenceUsesAbsoluteOnly) {
    GoldenFile ref, cur;
    ref.add("v", {0.0});
    cur.add("v", {5.0e-13});
    EXPECT_TRUE(compare_golden(ref, cur).ok); // abs err below tol
    GoldenFile cur2;
    cur2.add("v", {5.0e-10});
    EXPECT_FALSE(compare_golden(ref, cur2).ok);
}

// --- add-new-variables -----------------------------------------------

TEST(AddNewVariables, AppendsWithoutModifyingExisting) {
    // Section 4.2: "adds new tracked variables to the golden file without
    // modifying the existing values".
    GoldenFile existing;
    existing.add("alpha_rho1", {1.0, 2.0});
    GoldenFile fresh;
    fresh.add("alpha_rho1", {9.0, 9.0}); // different values: must be kept OLD
    fresh.add("vorticity", {0.5, 0.5});
    const GoldenFile merged = add_new_variables(existing, fresh);
    EXPECT_EQ(merged.values("alpha_rho1"), (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(merged.values("vorticity"), (std::vector<double>{0.5, 0.5}));
    EXPECT_EQ(merged.entries().size(), 2u);
}

TEST(AddNewVariables, NoopWhenNothingNew) {
    const GoldenFile merged = add_new_variables(sample(), sample());
    EXPECT_EQ(merged.entries().size(), 2u);
}

TEST(Metadata, ContainsUuidTraceAndParams) {
    const std::string meta =
        golden_metadata("ABCD1234", "3D -> IGR", "igr=T\nnx=10\n");
    EXPECT_NE(meta.find("uuid: ABCD1234"), std::string::npos);
    EXPECT_NE(meta.find("trace: 3D -> IGR"), std::string::npos);
    EXPECT_NE(meta.find("igr=T"), std::string::npos);
    EXPECT_NE(meta.find("tolerance"), std::string::npos);
}

} // namespace
} // namespace mfc::toolchain
