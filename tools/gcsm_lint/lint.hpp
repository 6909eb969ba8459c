// gcsm-lint: registry-backed contract linter for the GCSM tree.
//
// A project-specific static-analysis pass that keeps the cross-cutting
// contracts from drifting as hot paths get rewritten (docs/ANALYSIS.md,
// "Static analysis"). It is deliberately tokenizer-based — no libclang, no
// compile database — so it runs everywhere scripts/check.sh runs, in
// milliseconds, on a bare toolchain.
//
// Rules (each diagnostic is `file:line: rule: message`):
//
//   raw-metric-name      a string literal in src/ spells a metric name
//                        registered in src/util/metric_names.def; use the
//                        generated gcsm::metric::k* constant instead.
//   raw-fault-site       a string literal in src/ spells a fault site
//                        registered in src/util/fault_sites.def; use the
//                        generated gcsm::fault_site::k* constant instead.
//   doc-metric-sync      the registry and the docs/OBSERVABILITY.md metric
//                        catalogue table disagree (either direction).
//   raw-throw            a `throw` of an exception type outside the
//                        gcsm::Error taxonomy (Error and its subclasses,
//                        plus CheckFailure from util/check.hpp).
//   stray-relaxed-atomic std::memory_order_relaxed outside the audited
//                        whitelist (util/metrics, util/trace,
//                        gpusim/cost_model.hpp, core/access_policy.cpp).
//   kernel-copy          a call to intersect_into or intersect_view_into
//                        outside core/intersect.* and the match kernel
//                        (core/match_kernel.hpp): a second candidate loop
//                        that kernel changes would miss.
//   shared-tally         the identifier TrafficCounters on the kernel's
//                        fetch path (core/match_kernel.hpp,
//                        core/access_policy.*, core/list_ref.*,
//                        core/intersect.*, gpusim/page_cache.*): fetches
//                        charge the block's plain Traffic tally, merged
//                        once per launch, not atomics all blocks share.
//   ladder-copy          a member access to a RecoveryOptions ladder knob
//                        (max_attempts, backoff_*, min_cache_budget_bytes,
//                        ...) outside the recovery ladder (core/recovery.*):
//                        a second retry or budget ladder.
//   cache-order-copy     a call to select_by_frequency, select_by_degree
//                        or khop_vertices, or a member call to estimate(),
//                        outside the one cache step (core/phases.*) and
//                        what it calls (core/gpu_engine.*,
//                        core/frequency_estimator.*): a second step 2.
//   commit-copy          a member call to commit_batch, or any wal:: name,
//                        outside the commit path (core/durability.*,
//                        core/recovery.*, util/wal.*): a second commit step
//                        or a second reader of the WAL record types.
//   naked-lock           a bare .lock()/.unlock() member call; mutexes must
//                        be held through RAII (std::lock_guard,
//                        std::scoped_lock, std::unique_lock).
//
// The linter scans every .cpp/.hpp under <root>/src. The .def registries
// are the only place a registered name may appear as a literal; docs and
// tests are free to spell names out (tests deliberately arm ad-hoc fault
// sites). Whitelists live in lint.cpp next to the rules they relax, so
// adding an entry is a reviewed one-line diff.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace gcsm::lint {

struct Diagnostic {
  std::string file;  // path relative to the lint root
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  // Tree to lint: expects <root>/src, the .def registries under
  // <root>/src/util/, and (optionally) <root>/docs/OBSERVABILITY.md.
  // Missing registries lint as empty; a missing doc skips doc-metric-sync.
  std::filesystem::path root;
};

// Runs every rule over the tree; diagnostics come back sorted by file,
// line, then rule, so output is deterministic.
std::vector<Diagnostic> run_lint(const Options& options);

// `file:line: rule: message` — the one-line format scripts and editors
// parse.
std::string format_diagnostic(const Diagnostic& d);

}  // namespace gcsm::lint
