#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace gcsm::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Whitelists. Every entry is a reviewed exception; widen them only with a
// justification comment (the policy is documented in docs/ANALYSIS.md).

// Files allowed to use std::memory_order_relaxed: the lock-free metrics
// fast path and trace-span gate (relaxed by design — each metric update is
// an independent monotonic event), the cost model's TrafficCounters (a
// launch adds its summed block tallies once; read only after the join),
// and access_policy.cpp, only for CountingPolicy's per-vertex access counts
// (same join-before-read discipline). Kernel traffic is charged to plain
// per-block tallies, not here (see shared-tally below).
const std::set<std::string> kRelaxedAtomicFiles = {
    "src/util/metrics.hpp",      "src/util/metrics.cpp",
    "src/util/trace.hpp",        "src/util/trace.cpp",
    "src/gpusim/cost_model.hpp", "src/core/access_policy.cpp",
};

// Files allowed to call the candidate step's intersections: the
// intersection kernels and the one match kernel. Every matcher and the
// estimator reach set intersection through kernel::candidate_step, so a
// change to the candidate step lands once (DESIGN.md §5, "One enumeration
// core").
const std::set<std::string> kKernelFiles = {
    "src/core/intersect.hpp",
    "src/core/intersect.cpp",
    "src/core/match_kernel.hpp",
};
const std::set<std::string> kKernelCalls = {
    "intersect_into",
    "intersect_view_into",
};

// Files on the kernel's fetch path, which charge traffic per list read:
// they charge the caller's plain gpusim::Traffic, a tally each kernel block
// owns and its launch adds to the device's TrafficCounters once. A
// TrafficCounters here would put atomics that every block shares back on
// every fetch (DESIGN.md §5, "One enumeration core").
const std::set<std::string> kFetchPathFiles = {
    "src/core/match_kernel.hpp",  "src/core/access_policy.hpp",
    "src/core/access_policy.cpp", "src/core/list_ref.hpp",
    "src/core/list_ref.cpp",      "src/core/intersect.hpp",
    "src/core/intersect.cpp",     "src/gpusim/page_cache.hpp",
    "src/gpusim/page_cache.cpp",
};

// Files allowed to read the recovery knobs below: the one recovery ladder.
// Every engine reaches attempts, backoff, escalation and budget healing
// through RetryLadder / BudgetLadder, so a ladder change lands once
// (docs/ROBUSTNESS.md, "Transactional batches and the recovery ladder").
const std::set<std::string> kLadderFiles = {
    "src/core/recovery.hpp",
    "src/core/recovery.cpp",
};
const std::set<std::string> kLadderKnobs = {
    "max_attempts",           "max_cpu_attempts",
    "backoff_initial_ms",     "backoff_multiplier",
    "backoff_max_ms",         "heal_after_clean_batches",
    "min_cache_budget_bytes",
};

// Files allowed to choose a cache order: the one cache step
// (core/phases.*) and the selection strategies and estimator it calls.
// Every engine reaches step 2 through phase_estimate once per device, so a
// change to how the cache order is chosen lands once (DESIGN.md §6).
const std::set<std::string> kCacheOrderFiles = {
    "src/core/phases.hpp",
    "src/core/phases.cpp",
    "src/core/gpu_engine.hpp",
    "src/core/gpu_engine.cpp",
    "src/core/frequency_estimator.hpp",
    "src/core/frequency_estimator.cpp",
};
const std::set<std::string> kCacheOrderCalls = {
    "select_by_frequency",
    "select_by_degree",
    "khop_vertices",
};

// Files allowed to write commit units and to name the WAL: the durability
// manager, the one commit step (core/recovery.*) and the WAL itself.
// Every engine commits a batch through commit_transaction, so a change to
// the commit path lands once (docs/ROBUSTNESS.md, "Commit protocol").
const std::set<std::string> kCommitFiles = {
    "src/core/durability.hpp", "src/core/durability.cpp",
    "src/core/recovery.hpp",   "src/core/recovery.cpp",
    "src/util/wal.hpp",        "src/util/wal.cpp",
};
const std::set<std::string> kCommitCalls = {
    "commit_batch",
};

// Exception types `throw` may name: the gcsm::Error taxonomy (callers
// branch on ErrorCode; drivers map it to the exit-code contract) and
// CheckFailure (invariant violations from GCSM_CHECK/GCSM_ASSERT).
const std::set<std::string> kAllowedThrowTypes = {
    "Error",          "CrashError",        "DeviceOomError",
    "DeviceDmaError", "KernelLaunchError", "KernelTimeoutError",
    "CheckFailure",
};

// ---------------------------------------------------------------------------
// Tokenizer: just enough C++ lexing to separate identifiers, string
// literals, and punctuation, with comments and char literals dropped.

enum class TokKind { kIdent, kString, kPunct };

struct Token {
  TokKind kind;
  std::string text;  // for kString: the literal's value, unescaped quotes
  int line;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto peek = [&](std::size_t k) { return k < n ? text[k] : '\0'; };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
    } else if (c == '/' && peek(i + 1) == '/') {
      while (i < n && text[i] != '\n') ++i;
    } else if (c == '/' && peek(i + 1) == '*') {
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
    } else if (c == 'R' && peek(i + 1) == '"') {
      // Raw string literal: R"delim( ... )delim"
      const int start_line = line;
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') delim += text[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t body = j + 1;
      const std::size_t end = text.find(closer, body);
      const std::size_t stop = end == std::string::npos ? n : end;
      for (std::size_t k = i; k < stop; ++k) {
        if (text[k] == '\n') ++line;
      }
      out.push_back({TokKind::kString,
                     text.substr(body, stop - body), start_line});
      i = stop == n ? n : stop + closer.size();
    } else if (c == '"') {
      const int start_line = line;
      std::string value;
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < n) {
          value += text[i];
          value += text[i + 1];
          i += 2;
        } else {
          if (text[i] == '\n') ++line;  // unterminated; keep line count sane
          value += text[i++];
        }
      }
      ++i;  // closing quote
      out.push_back({TokKind::kString, value, start_line});
    } else if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\') ++i;
        ++i;
      }
      ++i;
    } else if (ident_char(c) &&
               std::isdigit(static_cast<unsigned char>(c)) == 0) {
      std::string ident;
      while (i < n && ident_char(text[i])) ident += text[i++];
      out.push_back({TokKind::kIdent, ident, line});
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Numbers (incl. 0x..., digit separators, suffixes) lex as one blob
      // we discard: no rule inspects them.
      while (i < n && (ident_char(text[i]) || text[i] == '.' ||
                       text[i] == '\'')) {
        ++i;
      }
    } else {
      std::string punct(1, c);
      if ((c == '-' && peek(i + 1) == '>') ||
          (c == ':' && peek(i + 1) == ':')) {
        punct += peek(i + 1);
        ++i;
      }
      ++i;
      out.push_back({TokKind::kPunct, punct, line});
    }
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Registry parsing: X-macro .def files. Comments are stripped by the
// tokenizer, so the format comment's "dotted.name" example is not an entry.

struct RegistryEntry {
  std::string name;
  std::string symbol;  // generates the k<symbol> constant
  std::string kind;    // Counter/Gauge/Histogram for metrics; empty for faults
  int line = 0;
};

// Parses MACRO(args...) invocations, keeping the first string literal as
// the registered name. Metrics lead with (Kind, Symbol, "name", ...);
// fault sites with (Symbol, "name", ...).
std::vector<RegistryEntry> parse_def(const fs::path& path,
                                     const std::string& macro,
                                     bool kind_first) {
  std::vector<RegistryEntry> entries;
  if (!fs::exists(path)) return entries;
  const std::vector<Token> toks = tokenize(read_file(path));
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != macro) continue;
    RegistryEntry e;
    e.line = toks[i].line;
    int depth = 0;
    bool kind_pending = kind_first;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == TokKind::kPunct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
      } else if (toks[j].kind == TokKind::kIdent && e.name.empty()) {
        // Identifiers before the name: kind first (metrics only), then
        // the symbol. Later identifiers (true/false) are ignored.
        if (kind_pending) {
          e.kind = toks[j].text;
          kind_pending = false;
        } else if (e.symbol.empty()) {
          e.symbol = toks[j].text;
        }
      } else if (toks[j].kind == TokKind::kString && e.name.empty()) {
        e.name = toks[j].text;
      }
    }
    if (!e.name.empty()) entries.push_back(e);
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Doc parsing: catalogue table rows are `| `name` | kind | meaning |`.

struct DocEntry {
  std::string name;
  int line = 0;
};

std::vector<DocEntry> parse_doc_table(const fs::path& path) {
  std::vector<DocEntry> entries;
  if (!fs::exists(path)) return entries;
  std::ifstream in(path);
  std::string row;
  int line = 0;
  while (std::getline(in, row)) {
    ++line;
    if (row.rfind("| `", 0) != 0) continue;
    const std::size_t open = 3;
    const std::size_t close = row.find('`', open);
    if (close == std::string::npos) continue;
    entries.push_back({row.substr(open, close - open), line});
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Per-file rules over the token stream.

struct FileContext {
  std::string rel;  // root-relative path with forward slashes
  const std::vector<Token>& toks;
  std::vector<Diagnostic>& out;
};

void emit(const FileContext& ctx, int line, const std::string& rule,
          const std::string& message) {
  ctx.out.push_back({ctx.rel, line, rule, message});
}

void check_registered_literals(
    const FileContext& ctx, const std::map<std::string, std::string>& metrics,
    const std::map<std::string, std::string>& faults) {
  for (const Token& t : ctx.toks) {
    if (t.kind != TokKind::kString) continue;
    if (const auto it = metrics.find(t.text); it != metrics.end()) {
      emit(ctx, t.line, "raw-metric-name",
           "string literal \"" + t.text +
               "\" spells a registered metric; use metric::k" + it->second +
               " from util/metric_names.def");
    } else if (const auto fit = faults.find(t.text); fit != faults.end()) {
      emit(ctx, t.line, "raw-fault-site",
           "string literal \"" + t.text +
               "\" spells a registered fault site; use fault_site::k" +
               fit->second + " from util/fault_sites.def");
    }
  }
}

void check_throws(const FileContext& ctx) {
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "throw") continue;
    // Walk the thrown expression's leading qualified-id: `throw A::B::C(...)`
    // keeps only C, the constructed type.
    std::string type;
    std::size_t j = i + 1;
    while (j < toks.size()) {
      if (toks[j].kind == TokKind::kIdent) {
        type = toks[j].text;
        ++j;
      } else if (toks[j].kind == TokKind::kPunct && toks[j].text == "::") {
        ++j;
      } else {
        break;
      }
    }
    if (type.empty()) continue;  // bare `throw;` rethrow
    if (kAllowedThrowTypes.count(type) != 0) continue;
    emit(ctx, toks[i].line, "raw-throw",
         "throw of " + type +
             " bypasses the gcsm::Error taxonomy; throw "
             "Error(ErrorCode::..., ...) so callers can branch on the "
             "code and drivers keep the exit-code contract");
  }
}

void check_relaxed_atomics(const FileContext& ctx) {
  if (kRelaxedAtomicFiles.count(ctx.rel) != 0) return;
  for (const Token& t : ctx.toks) {
    if (t.kind == TokKind::kIdent && t.text == "memory_order_relaxed") {
      emit(ctx, t.line, "stray-relaxed-atomic",
           "std::memory_order_relaxed outside the audited whitelist; "
           "default to sequential consistency or add this file to the "
           "whitelist in tools/gcsm_lint/lint.cpp with a justification");
    }
  }
}

void check_kernel_copies(const FileContext& ctx) {
  if (kKernelFiles.count(ctx.rel) != 0) return;
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent &&
        kKernelCalls.count(toks[i].text) != 0 &&
        toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(") {
      emit(ctx, toks[i].line, "kernel-copy",
           toks[i].text +
               " call outside the match kernel; compute candidates with "
               "kernel::candidate_step (core/match_kernel.hpp) so every "
               "matcher keeps running the one candidate step");
    }
  }
}

void check_shared_tallies(const FileContext& ctx) {
  if (kFetchPathFiles.count(ctx.rel) == 0) return;
  for (const Token& t : ctx.toks) {
    if (t.kind == TokKind::kIdent && t.text == "TrafficCounters") {
      emit(ctx, t.line, "shared-tally",
           "TrafficCounters on the kernel's fetch path; charge the caller's "
           "gpusim::Traffic tally, which its launch adds to the device's "
           "counters once, so no fetch does an atomic every block shares");
    }
  }
}

void check_ladder_copies(const FileContext& ctx) {
  if (kLadderFiles.count(ctx.rel) != 0) return;
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kPunct &&
        (toks[i].text == "." || toks[i].text == "->") &&
        toks[i + 1].kind == TokKind::kIdent &&
        kLadderKnobs.count(toks[i + 1].text) != 0) {
      emit(ctx, toks[i + 1].line, "ladder-copy",
           "read of RecoveryOptions::" + toks[i + 1].text +
               " outside the recovery ladder; drive attempts, backoff and "
               "budgets through RetryLadder / BudgetLadder "
               "(core/recovery.hpp) so every engine keeps running the one "
               "ladder");
    }
  }
}

void check_cache_order_copies(const FileContext& ctx) {
  if (kCacheOrderFiles.count(ctx.rel) != 0) return;
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& name = toks[i];
    if (name.kind != TokKind::kIdent || toks[i + 1].kind != TokKind::kPunct ||
        toks[i + 1].text != "(") {
      continue;
    }
    const bool member = i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (kCacheOrderCalls.count(name.text) != 0 ||
        (member && name.text == "estimate")) {
      emit(ctx, name.line, "cache-order-copy",
           name.text +
               " call outside the cache step; choose cache orders through "
               "phase_estimate (core/phases.hpp) so every engine keeps "
               "running the one step 2");
    }
  }
}

void check_commit_copies(const FileContext& ctx) {
  if (kCommitFiles.count(ctx.rel) != 0) return;
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& name = toks[i];
    const Token& next = toks[i + 1];
    if (name.kind != TokKind::kIdent || next.kind != TokKind::kPunct) {
      continue;
    }
    const bool member = i > 0 && toks[i - 1].kind == TokKind::kPunct &&
                        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (name.text == "wal" && next.text == "::") {
      emit(ctx, name.line, "commit-copy",
           "wal:: name outside the commit path; read and write the log "
           "through DurabilityManager (core/durability.hpp) so only it "
           "knows the WAL record types");
    } else if (member && next.text == "(" &&
               kCommitCalls.count(name.text) != 0) {
      emit(ctx, name.line, "commit-copy",
           name.text +
               " call outside the commit path; commit batches through "
               "commit_transaction (core/recovery.hpp) so every engine "
               "keeps running the one commit step");
    }
  }
}

void check_naked_locks(const FileContext& ctx) {
  const std::vector<Token>& toks = ctx.toks;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct ||
        (toks[i].text != "." && toks[i].text != "->")) {
      continue;
    }
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdent ||
        (name.text != "lock" && name.text != "unlock")) {
      continue;
    }
    if (toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(" &&
        toks[i + 3].kind == TokKind::kPunct && toks[i + 3].text == ")") {
      emit(ctx, name.line, "naked-lock",
           "bare ." + name.text +
               "() call; hold mutexes through RAII "
               "(std::lock_guard / std::scoped_lock / std::unique_lock)");
    }
  }
}

}  // namespace

std::vector<Diagnostic> run_lint(const Options& options) {
  std::vector<Diagnostic> out;
  const fs::path root = options.root;

  // Registries and docs.
  const std::vector<RegistryEntry> metric_entries = parse_def(
      root / "src/util/metric_names.def", "GCSM_METRIC", /*kind_first=*/true);
  const std::vector<RegistryEntry> fault_entries =
      parse_def(root / "src/util/fault_sites.def", "GCSM_FAULT_SITE",
                /*kind_first=*/false);
  std::map<std::string, std::string> metric_names;  // name -> symbol
  for (const RegistryEntry& e : metric_entries) metric_names[e.name] = e.symbol;
  std::map<std::string, std::string> fault_names;  // name -> symbol
  for (const RegistryEntry& e : fault_entries) fault_names[e.name] = e.symbol;

  // doc-metric-sync: registry rows and catalogue rows must be the same set.
  const fs::path doc = root / "docs/OBSERVABILITY.md";
  if (fs::exists(doc)) {
    const std::vector<DocEntry> doc_entries = parse_doc_table(doc);
    std::set<std::string> documented;
    for (const DocEntry& e : doc_entries) documented.insert(e.name);
    for (const RegistryEntry& e : metric_entries) {
      if (documented.count(e.name) == 0) {
        out.push_back({"src/util/metric_names.def", e.line, "doc-metric-sync",
                       "registered metric \"" + e.name +
                           "\" has no row in the docs/OBSERVABILITY.md "
                           "catalogue table"});
      }
    }
    for (const DocEntry& e : doc_entries) {
      if (metric_names.count(e.name) == 0) {
        out.push_back({"docs/OBSERVABILITY.md", e.line, "doc-metric-sync",
                       "documented metric \"" + e.name +
                           "\" is not registered in "
                           "src/util/metric_names.def"});
      }
    }
  }

  // Token rules over every translation unit and header under src/.
  std::vector<fs::path> files;
  const fs::path src = root / "src";
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    const std::string rel =
        fs::relative(path, root).generic_string();
    const std::vector<Token> toks = tokenize(read_file(path));
    FileContext ctx{rel, toks, out};
    check_registered_literals(ctx, metric_names, fault_names);
    check_throws(ctx);
    check_relaxed_atomics(ctx);
    check_kernel_copies(ctx);
    check_shared_tallies(ctx);
    check_ladder_copies(ctx);
    check_cache_order_copies(ctx);
    check_commit_copies(ctx);
    check_naked_locks(ctx);
  }

  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ":" << d.line << ": " << d.rule << ": " << d.message;
  return os.str();
}

}  // namespace gcsm::lint
