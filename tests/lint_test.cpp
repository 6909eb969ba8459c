// Tests for gcsm_lint (tools/gcsm_lint, docs/ANALYSIS.md "Static
// analysis"). Each fixture tree under tests/lint_fixtures/ contains one
// known violation of one rule; the test drives the lint library over the
// fixture and asserts the expected rule fires at the expected file. The
// `clean` fixture and the real repo tree must both lint to zero
// diagnostics, so the contract the linter enforces is itself enforced.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.hpp"

namespace gcsm::lint {
namespace {

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return run_lint({std::filesystem::path(GCSM_TEST_LINT_FIXTURES) / name});
}

std::string render(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const auto& d : diags) out += format_diagnostic(d) + "\n";
  return out;
}

TEST(Lint, CleanFixturePasses) {
  const auto diags = lint_fixture("clean");
  EXPECT_TRUE(diags.empty()) << render(diags);
}

TEST(Lint, FlagsRawMetricName) {
  const auto diags = lint_fixture("raw_metric");
  ASSERT_EQ(diags.size(), 1u) << render(diags);
  EXPECT_EQ(diags[0].rule, "raw-metric-name");
  EXPECT_EQ(diags[0].file, "src/bad.cpp");
  EXPECT_EQ(diags[0].line, 2);
  // The message names both the literal and the constant to reach for.
  EXPECT_NE(diags[0].message.find("cache.builds"), std::string::npos);
  EXPECT_NE(diags[0].message.find("metric::kCacheBuilds"), std::string::npos);
}

TEST(Lint, FlagsRawFaultSite) {
  const auto diags = lint_fixture("raw_fault");
  ASSERT_EQ(diags.size(), 1u) << render(diags);
  EXPECT_EQ(diags[0].rule, "raw-fault-site");
  EXPECT_EQ(diags[0].file, "src/bad.cpp");
  EXPECT_NE(diags[0].message.find("fault_site::kCacheBuild"),
            std::string::npos);
}

TEST(Lint, FlagsDocDriftBothDirections) {
  const auto diags = lint_fixture("doc_drift");
  // One registered-but-undocumented metric, one documented-but-unknown.
  ASSERT_EQ(diags.size(), 2u) << render(diags);
  EXPECT_TRUE(std::all_of(
      diags.begin(), diags.end(),
      [](const Diagnostic& d) { return d.rule == "doc-metric-sync"; }))
      << render(diags);
  EXPECT_NE(render(diags).find("cache.blob_bytes"), std::string::npos);
  EXPECT_NE(render(diags).find("cache.ghost_series"), std::string::npos);
}

TEST(Lint, FlagsRawThrow) {
  const auto diags = lint_fixture("raw_throw");
  ASSERT_EQ(diags.size(), 1u) << render(diags);
  EXPECT_EQ(diags[0].rule, "raw-throw");
  EXPECT_NE(diags[0].message.find("invalid_argument"), std::string::npos);
}

TEST(Lint, FlagsStrayRelaxedAtomic) {
  const auto diags = lint_fixture("relaxed_atomic");
  ASSERT_EQ(diags.size(), 1u) << render(diags);
  EXPECT_EQ(diags[0].rule, "stray-relaxed-atomic");
  EXPECT_EQ(diags[0].file, "src/core/bad.cpp");
}

TEST(Lint, FlagsKernelCopy) {
  // The fixture calls intersect_into and intersect_view_into from a
  // whitelisted kernel path (allowed) and from private candidate loops in
  // shard/ (flagged, once each).
  const auto diags = lint_fixture("kernel_copy");
  ASSERT_EQ(diags.size(), 2u) << render(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "kernel-copy");
    EXPECT_EQ(d.file, "src/shard/bad.cpp");
    EXPECT_NE(d.message.find("candidate_step"), std::string::npos);
  }
  EXPECT_NE(diags[1].message.find("intersect_view_into"), std::string::npos);
}

TEST(Lint, FlagsSharedTally) {
  // The fixture names TrafficCounters on the fetch path (flagged once; a
  // comment naming it passes) and in the launch that merges the tallies
  // (allowed).
  const auto diags = lint_fixture("shared_tally");
  ASSERT_EQ(diags.size(), 1u) << render(diags);
  EXPECT_EQ(diags[0].rule, "shared-tally");
  EXPECT_EQ(diags[0].file, "src/core/access_policy.hpp");
  EXPECT_EQ(diags[0].line, 6);
  EXPECT_NE(diags[0].message.find("gpusim::Traffic tally"), std::string::npos);
}

TEST(Lint, FlagsLadderCopy) {
  // The fixture reads ladder knobs from the whitelisted ladder (allowed) and
  // twice from a private retry loop in server/ (flagged: `.` and `->`).
  const auto diags = lint_fixture("ladder_copy");
  ASSERT_EQ(diags.size(), 2u) << render(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "ladder-copy");
    EXPECT_EQ(d.file, "src/server/bad.cpp");
    EXPECT_NE(d.message.find("RetryLadder"), std::string::npos);
  }
}

TEST(Lint, FlagsCacheOrderCopy) {
  // The fixture chooses cache orders in the one cache step (allowed) and
  // twice in a private copy in shard/ (flagged: a selection strategy and a
  // member estimate() call). A free function named estimate is not a call
  // of the estimator and passes.
  const auto diags = lint_fixture("cache_order_copy");
  ASSERT_EQ(diags.size(), 2u) << render(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "cache-order-copy");
    EXPECT_EQ(d.file, "src/shard/bad.cpp");
    EXPECT_NE(d.message.find("phase_estimate"), std::string::npos);
  }
}

TEST(Lint, FlagsCommitCopy) {
  // The fixture writes commit units from the one commit step (allowed)
  // and, in server/, makes a member commit_batch call and names a WAL
  // record type (both flagged).
  const auto diags = lint_fixture("commit_copy");
  ASSERT_EQ(diags.size(), 2u) << render(diags);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "commit-copy");
    EXPECT_EQ(d.file, "src/server/bad.cpp");
  }
  EXPECT_NE(diags[0].message.find("commit_transaction"), std::string::npos);
  EXPECT_NE(diags[1].message.find("DurabilityManager"), std::string::npos);
}

TEST(Lint, FlagsNakedLock) {
  const auto diags = lint_fixture("naked_lock");
  ASSERT_EQ(diags.size(), 2u) << render(diags);  // lock() and unlock()
  EXPECT_TRUE(std::all_of(
      diags.begin(), diags.end(),
      [](const Diagnostic& d) { return d.rule == "naked-lock"; }))
      << render(diags);
}

TEST(Lint, DiagnosticFormatIsFileLineRuleMessage) {
  const Diagnostic d{"src/bad.cpp", 7, "raw-throw", "boom"};
  EXPECT_EQ(format_diagnostic(d), "src/bad.cpp:7: raw-throw: boom");
}

// The linter's reason to exist: the real tree must satisfy its own
// contracts. This is the in-process twin of the `gcsm_lint .` run in
// scripts/check.sh.
TEST(Lint, RepoTreeIsClean) {
  const auto diags = run_lint({std::filesystem::path(GCSM_TEST_REPO_ROOT)});
  EXPECT_TRUE(diags.empty()) << render(diags);
}

}  // namespace
}  // namespace gcsm::lint
