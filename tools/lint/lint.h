// pahoehoe-lint: the determinism contract as machine-checkable rules.
//
// Everything the reproduction claims — figure parity, chaos-search
// reproducibility, cross-kernel bit-exactness (DESIGN.md §10), profiler
// side-channel purity (DESIGN.md §11) — rests on one invariant: simulation
// output is byte-identical for any --jobs, any SIMD kernel, any host. The
// digest-identity tests enforce that contract dynamically, after the fact;
// this analyzer rejects the known ways of breaking it at review time
// (DESIGN.md §12 enumerates the rules).
//
// It is deliberately not a compiler plugin: a small lexer strips comments
// and string/char literals per translation unit and structural rules run
// over the blanked text. That keeps the tool dependency-free (no libclang)
// and fast enough to run on every CI push, at the cost of being a lexical
// approximation — rules are tuned so that every miss is conservative
// (flag and let a human annotate) rather than silent.
//
// Suppressions are inline annotations only — `// lint:<name>-ok(<reason>)`
// on the flagged line or the line directly above; there is no global
// ignore file. A stale annotation (one that no longer suppresses anything)
// is itself a diagnostic, so the set of sanctioned exceptions can never
// silently grow or rot.
#pragma once

#include <string>
#include <vector>

namespace pahoehoe::lint {

/// One file to analyze. `path` should be repo-root-relative (it drives the
/// per-module whitelists, e.g. wall-clock reads inside src/obs/prof.*).
struct SourceFile {
  std::string path;
  std::string content;
};

/// One finding. `suppressed` findings were silenced by a matching
/// annotation; they are reported in the summary count but do not fail the
/// run.
struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;     ///< rule id, e.g. "unordered-iter"
  std::string message;  ///< what happened + how to fix it
  bool suppressed = false;
};

/// Static description of one rule, for --list-rules and the docs.
struct RuleInfo {
  const char* id;          ///< diagnostic id
  const char* annotation;  ///< suppression name: // lint:<annotation>(<why>)
  const char* summary;     ///< one-line contract statement
};

/// Every structural rule, in the order diagnostics are emitted. The two
/// meta rules (`stale-annotation`, `bad-annotation`) guard the suppression
/// mechanism itself and cannot be suppressed.
const std::vector<RuleInfo>& rules();

struct Report {
  std::vector<Diagnostic> diagnostics;  ///< active + suppressed, file order

  int active_count() const;
  int suppressed_count() const;

  /// `file:line: rule-id: message` per active diagnostic, then a summary
  /// line (`pahoehoe_lint: N files, D diagnostics, S suppressed`).
  std::string to_text(size_t files_scanned) const;
};

/// Run every rule over `files`. Cross-file state (identifiers declared as
/// std::unordered_map/set or storage::VersionTable anywhere in the set) is
/// collected first, so pass the whole tree in one call for full coverage.
Report analyze(const std::vector<SourceFile>& files);

/// Built-in fixture battery: every rule must fire on its bad snippet and
/// stay quiet on the good one, annotations must suppress and go stale.
/// Prints one line per case; returns 0 iff all pass.
int selftest();

}  // namespace pahoehoe::lint
