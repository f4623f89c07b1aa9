#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace pahoehoe::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule table. Order is emission order within a line.

constexpr const char* kRuleRand = "nondet-rand";
constexpr const char* kRuleClock = "nondet-clock";
constexpr const char* kRuleEnv = "nondet-env";
constexpr const char* kRuleUnordered = "unordered-iter";
constexpr const char* kRuleProfLiteral = "prof-literal";
constexpr const char* kRulePtrKey = "ptr-key";
constexpr const char* kRuleFloat = "float-digest";
constexpr const char* kRuleStale = "stale-annotation";
constexpr const char* kRuleBadAnnotation = "bad-annotation";

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleRand, "rand-ok",
       "ambient randomness (rand/random_device/...) is banned; draw from "
       "pahoehoe::Rng seeded by the run config"},
      {kRuleClock, "wallclock-ok",
       "wall-clock reads are confined to the obs/prof module; simulation "
       "code uses sim time"},
      {kRuleEnv, "env-ok",
       "process-environment reads go through pahoehoe::env (common/env.h), "
       "the single sanctioned getenv module"},
      {kRuleUnordered, "ordered-ok",
       "iterating a std::unordered_{map,set} or a storage::VersionTable leaks "
       "hash order into whatever is built from it; iterate a sorted view or "
       "prove order-insensitivity"},
      {kRuleProfLiteral, "prof-ok",
       "ProfScope/phase ids must be string literals: the thread-local "
       "accumulator keys by pointer identity"},
      {kRulePtrKey, "ptrkey-ok",
       "pointer-keyed std::map/std::set orders by address, which varies run "
       "to run; key by a stable id"},
      {kRuleFloat, "float-ok",
       "float accumulation in the sim plane must be order-deterministic "
       "(seed-order merge) before it may feed digests or JSON"},
      {kRuleStale, "",
       "a lint:*-ok annotation whose line no longer triggers the rule must "
       "be deleted (meta rule, not suppressible)"},
      {kRuleBadAnnotation, "",
       "a lint annotation must name a known rule and carry a non-empty "
       "reason (meta rule, not suppressible)"},
  };
  return kRules;
}

const RuleInfo* rule_for_annotation(const std::string& name) {
  for (const RuleInfo& r : rule_table()) {
    if (r.annotation[0] != '\0' && name == r.annotation) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Lexer: blank comments and string/char literals, keeping line structure and
// the literal's delimiting quotes (so "is the first ctor arg a string
// literal?" stays answerable on the blanked text). Comment text is kept per
// line for annotation parsing.

struct LexedFile {
  const SourceFile* src = nullptr;
  std::string code;                       // blanked, same length as content
  std::vector<std::string> comment_text;  // 1-based by line; [0] unused
  int line_count = 0;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

LexedFile lex(const SourceFile& src) {
  LexedFile out;
  out.src = &src;
  const std::string& s = src.content;
  out.code.assign(s.size(), ' ');
  out.line_count =
      1 + static_cast<int>(std::count(s.begin(), s.end(), '\n'));
  out.comment_text.assign(static_cast<size_t>(out.line_count) + 1, "");

  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  int line = 1;
  std::string raw_delim;  // for raw strings: the ")delim\"" terminator
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      out.code[i] = '\n';
      if (st == St::kLineComment) st = St::kCode;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          ++i;  // swallow the second slash (blank already)
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string? The opener is R"delim( with R adjacent to the quote.
          if (i > 0 && s[i - 1] == 'R' &&
              (i < 2 || !ident_char(s[i - 2]))) {
            size_t p = i + 1;
            while (p < s.size() && s[p] != '(' && s[p] != '\n') ++p;
            if (p < s.size() && s[p] == '(') {
              raw_delim = ")" + s.substr(i + 1, p - i - 1) + "\"";
              out.code[i] = '"';
              st = St::kRaw;
              break;
            }
          }
          out.code[i] = '"';
          st = St::kString;
        } else if (c == '\'' && i > 0 && ident_char(s[i - 1])) {
          out.code[i] = '\'';  // digit separator? treat as literal quote:
          st = St::kChar;      // C++14 separators only appear in numbers,
          if (std::isdigit(static_cast<unsigned char>(s[i - 1])) &&
              ident_char(next)) {
            st = St::kCode;  // 1'000'000 — keep scanning as code
          }
        } else if (c == '\'') {
          out.code[i] = '\'';
          st = St::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case St::kLineComment:
        out.comment_text[static_cast<size_t>(line)] += c;
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          ++i;
          st = St::kCode;
        } else {
          out.comment_text[static_cast<size_t>(line)] += c;
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
          if (next == '\n') ++line;
        } else if (c == '"') {
          out.code[i] = '"';
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          st = St::kCode;
        }
        break;
      case St::kRaw:
        if (c == ')' && s.compare(i, raw_delim.size(), raw_delim) == 0) {
          // Count the newlines the raw literal spans were already handled
          // character-by-character (the '\n' branch above runs first), so
          // just close it out.
          i += raw_delim.size() - 1;
          out.code[i] = '"';
          st = St::kCode;
        } else if (c == '\n') {
          ++line;  // unreachable (handled above), kept for clarity
        }
        break;
    }
  }
  return out;
}

int line_of(const LexedFile& f, size_t pos) {
  return 1 + static_cast<int>(
                 std::count(f.code.begin(), f.code.begin() + pos, '\n'));
}

// ---------------------------------------------------------------------------
// Token scanning helpers over blanked code.

/// Position of `token` as a whole identifier at/after `from`; npos if none.
size_t find_token(const std::string& code, const std::string& token,
                  size_t from) {
  size_t p = from;
  while ((p = code.find(token, p)) != std::string::npos) {
    const bool left_ok = p == 0 || !ident_char(code[p - 1]);
    const size_t end = p + token.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return p;
    p = end;
  }
  return std::string::npos;
}

size_t skip_ws(const std::string& code, size_t p) {
  while (p < code.size() &&
         std::isspace(static_cast<unsigned char>(code[p])) != 0) {
    ++p;
  }
  return p;
}

/// Matching close for the bracket pair opening at `open` ('(' or '<' or
/// '{'); npos when unbalanced.
size_t match_bracket(const std::string& code, size_t open, char oc, char cc) {
  int depth = 0;
  for (size_t p = open; p < code.size(); ++p) {
    if (code[p] == oc) {
      ++depth;
    } else if (code[p] == cc) {
      if (--depth == 0) return p;
    } else if (oc == '<' && code[p] == ';') {
      return std::string::npos;  // template args never span a statement
    }
  }
  return std::string::npos;
}

std::string prev_token(const std::string& code, size_t before) {
  size_t p = before;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
    --p;
  }
  size_t end = p;
  while (p > 0 && ident_char(code[p - 1])) --p;
  return code.substr(p, end - p);
}

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Trailing identifier of an expression like `cluster.view()->dc_of_node`;
/// empty when the expression ends in something else (call, index, ...).
std::string terminal_identifier(const std::string& expr) {
  std::string t = trim(expr);
  if (t.empty() || !ident_char(t.back())) return "";
  size_t b = t.size();
  while (b > 0 && ident_char(t[b - 1])) --b;
  return t.substr(b);
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Annotations.

struct Annotation {
  int line = 0;
  std::string name;    // e.g. "ordered-ok"
  std::string reason;  // text inside (...)
  bool malformed = false;
  bool used = false;
};

std::vector<Annotation> parse_annotations(const LexedFile& f) {
  std::vector<Annotation> out;
  for (int line = 1; line <= f.line_count; ++line) {
    const std::string& text = f.comment_text[static_cast<size_t>(line)];
    size_t p = 0;
    while ((p = text.find("lint:", p)) != std::string::npos) {
      if (p > 0 && ident_char(text[p - 1])) {  // e.g. "pahoehoe_lint:"
        p += 5;
        continue;
      }
      Annotation a;
      a.line = line;
      size_t q = p + 5;
      while (q < text.size() &&
             (ident_char(text[q]) || text[q] == '-')) {
        a.name += text[q++];
      }
      if (q < text.size() && text[q] == '(') {
        const size_t close = text.find(')', q);
        if (close != std::string::npos) {
          a.reason = trim(text.substr(q + 1, close - q - 1));
          q = close + 1;
        } else {
          a.malformed = true;
        }
      } else {
        a.malformed = true;  // reason is mandatory: lint:<name>(<why>)
      }
      // Prose that merely mentions "lint:" (docs, tool output quoted in a
      // comment) is not an annotation *attempt*: only the suppression
      // shape — an `-ok` name or a parenthesized reason — is held to the
      // annotation grammar.
      const bool looks_like_attempt =
          (a.name.size() > 3 &&
           a.name.compare(a.name.size() - 3, 3, "-ok") == 0) ||
          !a.malformed;
      if (looks_like_attempt) out.push_back(a);
      p = q;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file rule scans. Each emits (line, rule-id, message) triples.

struct RawDiag {
  int line = 0;
  const char* rule = nullptr;
  std::string message;
};

struct BannedToken {
  const char* token;
  const char* rule;
  bool call_only;  ///< require '(' after the token (function-like source)
  const char* hint;
};

const BannedToken kBannedTokens[] = {
    {"rand", kRuleRand, true, "use pahoehoe::Rng (common/rng.h)"},
    {"srand", kRuleRand, true, "use pahoehoe::Rng (common/rng.h)"},
    {"rand_r", kRuleRand, true, "use pahoehoe::Rng (common/rng.h)"},
    {"drand48", kRuleRand, true, "use pahoehoe::Rng (common/rng.h)"},
    {"lrand48", kRuleRand, true, "use pahoehoe::Rng (common/rng.h)"},
    {"random_device", kRuleRand, false,
     "seed pahoehoe::Rng from the run config instead"},
    {"system_clock", kRuleClock, false,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"steady_clock", kRuleClock, false,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"high_resolution_clock", kRuleClock, false,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"time", kRuleClock, true,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"clock", kRuleClock, true,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"clock_gettime", kRuleClock, true,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"gettimeofday", kRuleClock, true,
     "use sim time, or obs/prof for wall-clock measurement"},
    {"getenv", kRuleEnv, true, "call pahoehoe::env::* (common/env.h)"},
    {"secure_getenv", kRuleEnv, true,
     "call pahoehoe::env::* (common/env.h)"},
};

bool rule_whitelisted(const char* rule, const std::string& path) {
  if (rule == kRuleClock || rule == kRuleProfLiteral) {
    // The wall-clock module itself (and its declaration site).
    return path_contains(path, "src/obs/prof.");
  }
  if (rule == kRuleEnv) {
    // The single sanctioned environment-access module.
    return path_contains(path, "src/common/env.");
  }
  if (rule == kRuleFloat) {
    // The float rule guards the sim/digest plane; benches, examples and
    // tests reduce host-measured values that never feed a digest.
    return !path_contains(path, "src/");
  }
  return false;
}

void scan_banned_tokens(const LexedFile& f, std::vector<RawDiag>& out) {
  for (const BannedToken& b : kBannedTokens) {
    if (rule_whitelisted(b.rule, f.src->path)) continue;
    const std::string token = b.token;
    size_t p = 0;
    while ((p = find_token(f.code, token, p)) != std::string::npos) {
      const size_t after = skip_ws(f.code, p + token.size());
      bool hit = true;
      if (b.call_only) {
        hit = after < f.code.size() && f.code[after] == '(';
        // Member calls (`sim.time()`) are a different function entirely.
        if (hit && p > 0) {
          const char prev = f.code[p - 1];
          if (prev == '.' ||
              (prev == '>' && p > 1 && f.code[p - 2] == '-')) {
            hit = false;
          }
        }
      }
      if (hit) {
        out.push_back({line_of(f, p), b.rule,
                       "nondeterminism source `" + token +
                           "` in the sim plane; " + b.hint});
      }
      p += token.size();
    }
  }
}

/// Pass 1 helper: names declared as a hashed container — a
/// std::unordered_map/unordered_set, or a storage::VersionTable, whose only
/// ordered walk is its sorted() view — (variables, members, parameters),
/// mapped to their declaration site.
void collect_unordered_decls(const LexedFile& f,
                             std::map<std::string, std::string>& decls) {
  for (const char* type : {"unordered_map", "unordered_set",
                           "unordered_multimap", "unordered_multiset",
                           "VersionTable"}) {
    size_t p = 0;
    while ((p = find_token(f.code, type, p)) != std::string::npos) {
      const size_t start = p;
      p += std::string(type).size();
      size_t q = skip_ws(f.code, p);
      if (q >= f.code.size() || f.code[q] != '<') continue;
      const size_t close = match_bracket(f.code, q, '<', '>');
      if (close == std::string::npos) continue;
      q = skip_ws(f.code, close + 1);
      // Skip references/pointers in parameter declarations.
      while (q < f.code.size() && (f.code[q] == '&' || f.code[q] == '*')) {
        q = skip_ws(f.code, q + 1);
      }
      if (q < f.code.size() && ident_char(f.code[q])) {
        size_t e = q;
        while (e < f.code.size() && ident_char(f.code[e])) ++e;
        const std::string name = f.code.substr(q, e - q);
        if (name != "const" && name != "operator" && name != "return" &&
            !decls.count(name)) {
          decls[name] =
              f.src->path + ":" + std::to_string(line_of(f, start));
        }
      }
      p = close;
    }
  }
}

void scan_range_for(const LexedFile& f,
                    const std::map<std::string, std::string>& unordered,
                    std::vector<RawDiag>& out) {
  size_t p = 0;
  while ((p = find_token(f.code, "for", p)) != std::string::npos) {
    const size_t for_pos = p;
    p += 3;
    const size_t open = skip_ws(f.code, p);
    if (open >= f.code.size() || f.code[open] != '(') continue;
    const size_t close = match_bracket(f.code, open, '(', ')');
    if (close == std::string::npos) continue;
    // Top-level ':' (not '::') with no ';' before it => range-for.
    size_t colon = std::string::npos;
    int depth = 0;
    bool classic = false;
    for (size_t q = open + 1; q < close; ++q) {
      const char c = f.code[q];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (depth != 0) continue;
      if (c == ';') {
        classic = true;
        break;
      }
      if (c == ':' && f.code[q + 1] != ':' &&
          (q == 0 || f.code[q - 1] != ':')) {
        colon = q;
        break;
      }
    }
    if (classic || colon == std::string::npos) continue;
    const std::string expr = f.code.substr(colon + 1, close - colon - 1);
    const std::string name = terminal_identifier(expr);
    if (name.empty()) continue;
    const auto it = unordered.find(name);
    if (it == unordered.end()) continue;
    out.push_back(
        {line_of(f, for_pos), kRuleUnordered,
         "range-for over `" + name + "` (declared as a hashed container at " +
             it->second +
             "); hash order is nondeterministic — iterate a sorted view, "
             "or annotate if the loop body is order-insensitive"});
  }
}

void scan_prof_literal(const LexedFile& f, std::vector<RawDiag>& out) {
  if (rule_whitelisted(kRuleProfLiteral, f.src->path)) return;
  size_t p = 0;
  while ((p = find_token(f.code, "ProfScope", p)) != std::string::npos) {
    const size_t at = p;
    p += 9;
    if (at > 0 && f.code[at - 1] == '~') continue;  // destructor
    if (prev_token(f.code, at) == "class" ||
        prev_token(f.code, at) == "struct") {
      continue;
    }
    size_t q = skip_ws(f.code, p);
    // Optional variable name between the type and the ctor argument list.
    if (q < f.code.size() && ident_char(f.code[q])) {
      while (q < f.code.size() && ident_char(f.code[q])) ++q;
      q = skip_ws(f.code, q);
    }
    if (q >= f.code.size() || (f.code[q] != '(' && f.code[q] != '{')) {
      continue;
    }
    const char oc = f.code[q];
    const size_t close =
        match_bracket(f.code, q, oc, oc == '(' ? ')' : '}');
    if (close == std::string::npos || close == q + 1) continue;  // decl ()
    const std::string arg = trim(f.code.substr(q + 1, close - q - 1));
    if (arg.empty() || arg[0] == '"' || arg == "nullptr") continue;
    out.push_back(
        {line_of(f, at), kRuleProfLiteral,
         "ProfScope phase id `" + arg +
             "` is not a string literal; the accumulator keys by pointer — "
             "pass a literal, or annotate a static-storage source"});
  }
}

void scan_ptr_key(const LexedFile& f, std::vector<RawDiag>& out) {
  for (const char* type : {"map", "set", "multimap", "multiset"}) {
    size_t p = 0;
    while ((p = find_token(f.code, type, p)) != std::string::npos) {
      const size_t at = p;
      p += std::string(type).size();
      // Only the std:: spellings: a bare `map<` is someone else's type.
      if (at < 2 || f.code[at - 1] != ':' || f.code[at - 2] != ':') continue;
      size_t q = skip_ws(f.code, at + std::string(type).size());
      if (q >= f.code.size() || f.code[q] != '<') continue;
      const size_t close = match_bracket(f.code, q, '<', '>');
      if (close == std::string::npos) continue;
      // First template argument: up to the top-level comma (or the close).
      size_t end = close;
      int depth = 0;
      for (size_t r = q + 1; r < close; ++r) {
        const char c = f.code[r];
        if (c == '<' || c == '(') ++depth;
        if (c == '>' || c == ')') --depth;
        if (depth == 0 && c == ',') {
          end = r;
          break;
        }
      }
      const std::string key = trim(f.code.substr(q + 1, end - q - 1));
      if (!key.empty() && key.back() == '*') {
        out.push_back(
            {line_of(f, at), kRulePtrKey,
             "std::" + std::string(type) + " keyed by pointer (`" + key +
                 "`): iteration order is the allocator's, not the "
                 "program's — key by a stable id instead"});
      }
    }
  }
}

void scan_float_accumulation(const LexedFile& f, std::vector<RawDiag>& out) {
  if (rule_whitelisted(kRuleFloat, f.src->path)) return;
  // Identifiers declared double/float in this TU (locals and members that
  // are declared in the same file; cross-TU members are out of lexical
  // reach and covered by review + the digest-identity tests).
  std::set<std::string> float_names;
  for (const char* type : {"double", "float"}) {
    size_t p = 0;
    while ((p = find_token(f.code, type, p)) != std::string::npos) {
      p += std::string(type).size();
      size_t q = skip_ws(f.code, p);
      if (q < f.code.size() && ident_char(f.code[q]) &&
          !std::isdigit(static_cast<unsigned char>(f.code[q]))) {
        size_t e = q;
        while (e < f.code.size() && ident_char(f.code[e])) ++e;
        const size_t after = skip_ws(f.code, e);
        // `double mean() const` declares a function, not an accumulator.
        if (after < f.code.size() && f.code[after] != '(') {
          float_names.insert(f.code.substr(q, e - q));
        }
      }
    }
  }
  for (const std::string& name : float_names) {
    size_t p = 0;
    while ((p = find_token(f.code, name, p)) != std::string::npos) {
      const size_t at = p;
      p += name.size();
      const size_t q = skip_ws(f.code, at + name.size());
      if (q + 1 < f.code.size() && (f.code[q] == '+' || f.code[q] == '-') &&
          f.code[q + 1] == '=') {
        out.push_back(
            {line_of(f, at), kRuleFloat,
             "float accumulation into `" + name +
                 "` in the sim plane; FP addition is order-sensitive — "
                 "accumulate in a deterministic order and annotate, or use "
                 "integers"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return rule_table(); }

int Report::active_count() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics) n += d.suppressed ? 0 : 1;
  return n;
}

int Report::suppressed_count() const {
  return static_cast<int>(diagnostics.size()) - active_count();
}

std::string Report::to_text(size_t files_scanned) const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    if (d.suppressed) continue;
    os << d.path << ":" << d.line << ": " << d.rule << ": " << d.message
       << "\n";
  }
  os << "pahoehoe_lint: " << files_scanned << " files, " << active_count()
     << (active_count() == 1 ? " diagnostic, " : " diagnostics, ")
     << suppressed_count() << " suppressed\n";
  return os.str();
}

Report analyze(const std::vector<SourceFile>& files) {
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& f : files) lexed.push_back(lex(f));

  // Cross-file pass: any identifier declared unordered anywhere taints
  // range-fors over that name in every TU (members declared in headers are
  // iterated from .cpp files the lexer cannot otherwise connect).
  std::map<std::string, std::string> unordered;
  for (const LexedFile& f : lexed) collect_unordered_decls(f, unordered);

  Report report;
  for (const LexedFile& f : lexed) {
    std::vector<RawDiag> raw;
    scan_banned_tokens(f, raw);
    scan_range_for(f, unordered, raw);
    scan_prof_literal(f, raw);
    scan_ptr_key(f, raw);
    scan_float_accumulation(f, raw);
    std::stable_sort(raw.begin(), raw.end(),
                     [](const RawDiag& a, const RawDiag& b) {
                       return a.line < b.line;
                     });

    std::vector<Annotation> annotations = parse_annotations(f);
    for (const RawDiag& d : raw) {
      const RuleInfo* info = nullptr;
      for (const RuleInfo& r : rule_table()) {
        if (r.id == d.rule) info = &r;
      }
      bool suppressed = false;
      for (Annotation& a : annotations) {
        // Malformed or reason-less annotations never suppress: the meta
        // diagnostic below keeps the original finding company instead.
        if (a.malformed || a.reason.empty() || info == nullptr) continue;
        if (a.name != info->annotation) continue;
        // Inline means the flagged line or the line directly above.
        if (a.line == d.line || a.line + 1 == d.line) {
          a.used = true;
          suppressed = true;
        }
      }
      report.diagnostics.push_back(
          {f.src->path, d.line, d.rule, d.message, suppressed});
    }
    for (const Annotation& a : annotations) {
      if (a.malformed) {
        report.diagnostics.push_back(
            {f.src->path, a.line, kRuleBadAnnotation,
             "malformed annotation `lint:" + a.name +
                 "`: write lint:<name>-ok(<non-empty reason>)",
             false});
        continue;
      }
      const RuleInfo* target = rule_for_annotation(a.name);
      if (target == nullptr) {
        report.diagnostics.push_back(
            {f.src->path, a.line, kRuleBadAnnotation,
             "unknown annotation `lint:" + a.name +
                 "`; see pahoehoe_lint --list-rules",
             false});
        continue;
      }
      if (a.reason.empty()) {
        report.diagnostics.push_back(
            {f.src->path, a.line, kRuleBadAnnotation,
             "annotation `lint:" + a.name + "` needs a reason: lint:" +
                 a.name + "(<why this is deterministic>)",
             false});
        continue;
      }
      if (!a.used) {
        report.diagnostics.push_back(
            {f.src->path, a.line, kRuleStale,
             "stale `lint:" + a.name +
                 "`: no " + std::string(target->id) +
                 " diagnostic on this or the next line — delete the "
                 "annotation",
             false});
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Selftest: one bad and one good fixture per rule, plus the annotation
// machinery (suppression counted, stale and malformed flagged).

namespace {

struct Fixture {
  const char* name;
  const char* path;
  const char* content;
  const char* expect_rule;  // nullptr => expect clean
};

const Fixture kFixtures[] = {
    {"rand-bad", "src/core/x.cpp", "int f() { return rand() % 7; }\n",
     kRuleRand},
    {"rand-good", "src/core/x.cpp",
     "int f(Rng& rng) { return (int)rng.uniform_int(0, 6); }\n", nullptr},
    {"random-device-bad", "src/core/x.cpp",
     "std::mt19937 g{std::random_device{}()};\n", kRuleRand},
    {"clock-bad", "src/core/x.cpp",
     "auto t = std::chrono::steady_clock::now();\n", kRuleClock},
    {"clock-whitelisted", "src/obs/prof.cpp",
     "using Clock = std::chrono::steady_clock;\n", nullptr},
    {"clock-member-call-good", "src/core/x.cpp",
     "double t = sim.time();\n", nullptr},
    {"env-bad", "src/core/x.cpp",
     "const char* v = std::getenv(\"PAHOEHOE_X\");\n", kRuleEnv},
    {"env-whitelisted", "src/common/env.cpp",
     "const char* v = std::getenv(name);\n", nullptr},
    {"unordered-bad", "src/core/x.cpp",
     "std::unordered_map<int, int> table;\n"
     "void f() { for (const auto& [k, v] : table) emit(k, v); }\n",
     kRuleUnordered},
    {"unordered-good", "src/core/x.cpp",
     "std::map<int, int> table;\n"
     "void f() { for (const auto& [k, v] : table) emit(k, v); }\n",
     nullptr},
    {"version-table-bad", "src/core/x.cpp",
     "storage::VersionTable<Work> work_;\n"
     "void f() { for (auto& item : work_) emit(item); }\n",
     kRuleUnordered},
    {"version-table-sorted-good", "src/core/x.cpp",
     "storage::VersionTable<Work> work_;\n"
     "void f() { for (auto* item : work_.sorted()) emit(item); }\n",
     nullptr},
    {"prof-bad", "src/core/x.cpp",
     "void f(const char* phase) { obs::ProfScope prof(phase); }\n",
     kRuleProfLiteral},
    {"prof-good", "src/core/x.cpp",
     "void f() { obs::ProfScope prof(\"encode\"); }\n", nullptr},
    {"ptrkey-bad", "src/core/x.cpp",
     "std::map<const Node*, int> rank;\n", kRulePtrKey},
    {"ptrkey-good", "src/core/x.cpp", "std::map<NodeId, int> rank;\n",
     nullptr},
    {"float-bad", "src/core/x.cpp",
     "double total = 0;\nvoid f(double v) { total += v; }\n", kRuleFloat},
    {"float-good-integer", "src/core/x.cpp",
     "uint64_t total = 0;\nvoid f(uint64_t v) { total += v; }\n", nullptr},
    {"float-outside-sim-plane", "bench/x.cpp",
     "double total = 0;\nvoid f(double v) { total += v; }\n", nullptr},
    {"string-literal-masked", "src/core/x.cpp",
     "const char* s = \"rand() getenv( steady_clock\";\n", nullptr},
    {"comment-masked", "src/core/x.cpp",
     "// rand() getenv( steady_clock\nint x = 0;\n", nullptr},
};

bool expect(bool ok, const char* what, int& failures) {
  std::printf("  %s %s\n", ok ? "ok " : "FAIL", what);
  if (!ok) ++failures;
  return ok;
}

}  // namespace

int selftest() {
  int failures = 0;
  std::printf("pahoehoe_lint selftest\n");
  for (const Fixture& fx : kFixtures) {
    const Report r = analyze({{fx.path, fx.content}});
    if (fx.expect_rule == nullptr) {
      expect(r.active_count() == 0 && r.suppressed_count() == 0, fx.name,
             failures);
    } else {
      const bool fired =
          r.active_count() >= 1 &&
          std::all_of(r.diagnostics.begin(), r.diagnostics.end(),
                      [&](const Diagnostic& d) {
                        return d.rule == fx.expect_rule;
                      });
      expect(fired, fx.name, failures);
    }
  }
  {
    const Report r = analyze(
        {{"src/core/x.cpp",
          "std::unordered_map<int, int> table;\n"
          "void f() {\n"
          "  // lint:ordered-ok(sums are commutative)\n"
          "  for (const auto& [k, v] : table) total_ += v;\n"
          "}\n"}});
    expect(r.active_count() == 0 && r.suppressed_count() == 1,
           "annotation-suppresses", failures);
  }
  {
    const Report r = analyze(
        {{"src/core/x.cpp",
          "std::map<int, int> table;  // lint:ordered-ok(left behind)\n"}});
    expect(r.active_count() == 1 && r.diagnostics[0].rule == kRuleStale,
           "stale-annotation-flagged", failures);
  }
  {
    const Report r = analyze(
        {{"src/core/x.cpp",
          "std::unordered_map<int, int> t;\n"
          "void f() { for (const auto& [k, v] : t) g(k); }  "
          "// lint:ordered-ok()\n"}});
    expect(r.active_count() == 2, "empty-reason-rejected", failures);
  }
  {
    // Cross-file: member declared unordered in the header, iterated in the
    // .cpp — the whole point of the two-pass analysis.
    const Report r = analyze(
        {{"src/core/x.h", "struct S { std::unordered_set<int> live_; };\n"},
         {"src/core/x.cpp",
          "void S::f() { for (int id : live_) emit(id); }\n"}});
    expect(r.active_count() == 1 &&
               r.diagnostics[0].rule == kRuleUnordered &&
               r.diagnostics[0].path == "src/core/x.cpp",
           "cross-file-member", failures);
  }
  std::printf("pahoehoe_lint selftest: %s\n",
              failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace pahoehoe::lint
