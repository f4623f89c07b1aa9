// Fixture battery for pahoehoe-lint (tools/lint): every determinism rule
// must fire on a known-bad snippet and stay quiet on the known-good
// variant, annotations must suppress (and be counted), and the meta rules
// must catch stale or malformed annotations. The snippets are deliberately
// shaped like the real call sites the rules were written for.
#include "lint.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace pahoehoe::lint {
namespace {

Report run(const std::string& path, const std::string& content) {
  return analyze({{path, content}});
}

std::vector<std::string> active_rules(const Report& r) {
  std::vector<std::string> out;
  for (const Diagnostic& d : r.diagnostics) {
    if (!d.suppressed) out.push_back(d.rule);
  }
  return out;
}

TEST(RuleTableTest, IdsAndAnnotationsAreUniqueAndDocumented) {
  std::set<std::string> ids;
  std::set<std::string> annotations;
  for (const RuleInfo& r : rules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_NE(std::string(r.summary), "") << r.id;
    if (r.annotation[0] != '\0') {
      EXPECT_TRUE(annotations.insert(r.annotation).second)
          << "duplicate annotation " << r.annotation;
    }
  }
  EXPECT_GE(ids.size(), 9u);
}

// --- nondet-rand ------------------------------------------------------------

TEST(NondetRandTest, FiresOnRandCall) {
  const Report r = run("src/core/x.cpp", "int jitter() { return rand() % 5; }\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"nondet-rand"});
  EXPECT_EQ(r.diagnostics[0].line, 1);
}

TEST(NondetRandTest, FiresOnRandomDevice) {
  const Report r =
      run("src/workload.cpp", "std::mt19937_64 g{std::random_device{}()};\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"nondet-rand"});
}

TEST(NondetRandTest, QuietOnSeededRng) {
  const Report r = run(
      "src/core/x.cpp",
      "int jitter(Rng& rng) { return (int)rng.uniform_int(0, 4); }\n"
      "uint64_t sub_seed(Rng& rng) { return rng.next_u64(); }\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(NondetRandTest, QuietOnIdentifiersContainingRand) {
  const Report r = run("src/core/x.cpp",
                       "int operand = 3; int rand_total = operand;\n");
  EXPECT_EQ(r.active_count(), 0);
}

// --- nondet-clock -----------------------------------------------------------

TEST(NondetClockTest, FiresOnSteadyClockInSimPlane) {
  const Report r = run("src/core/proxy.cpp",
                       "auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"nondet-clock"});
}

TEST(NondetClockTest, FiresOnTimeCall) {
  const Report r = run("src/core/x.cpp", "long now = time(nullptr);\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"nondet-clock"});
}

TEST(NondetClockTest, QuietOnMemberNamedTime) {
  const Report r = run("src/core/x.cpp",
                       "double t = sim.time(); double u = sim->time();\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(NondetClockTest, ProfModuleIsWhitelisted) {
  const Report r = run("src/obs/prof.cpp",
                       "using Clock = std::chrono::steady_clock;\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(NondetClockTest, BenchTimingNeedsAnnotation) {
  const Report bare = run("bench/micro_x.cpp",
                          "using Clock = std::chrono::steady_clock;\n");
  EXPECT_EQ(active_rules(bare), std::vector<std::string>{"nondet-clock"});
  const Report annotated = run(
      "bench/micro_x.cpp",
      "// lint:wallclock-ok(bench harness measures host throughput)\n"
      "using Clock = std::chrono::steady_clock;\n");
  EXPECT_EQ(annotated.active_count(), 0);
  EXPECT_EQ(annotated.suppressed_count(), 1);
}

// --- nondet-env -------------------------------------------------------------

TEST(NondetEnvTest, FiresOutsideEnvModule) {
  const Report r = run(
      "src/erasure/gf256_dispatch.cpp",
      "const char* env = std::getenv(\"PAHOEHOE_GF256_KERNEL\");\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"nondet-env"});
}

TEST(NondetEnvTest, EnvModuleIsTheWhitelist) {
  const Report r = run("src/common/env.cpp",
                       "const char* value = std::getenv(name);\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(NondetEnvTest, QuietOnEnvHelperCallers) {
  const Report r = run(
      "src/erasure/gf256_dispatch.cpp",
      "auto v = env::override_value(\"PAHOEHOE_GF256_KERNEL\");\n");
  EXPECT_EQ(r.active_count(), 0);
}

// --- unordered-iter ---------------------------------------------------------

TEST(UnorderedIterTest, FiresOnRangeForOverUnorderedMap) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_map<NodeId, Handler*> handlers_;\n"
      "void f() {\n"
      "  for (const auto& [id, h] : handlers_) render(id);\n"
      "}\n");
  ASSERT_EQ(active_rules(r), std::vector<std::string>{"unordered-iter"});
  EXPECT_EQ(r.diagnostics[0].line, 3);
  // The message names the declaration site so the finding is checkable.
  EXPECT_NE(r.diagnostics[0].message.find("src/core/x.cpp:1"),
            std::string::npos);
}

TEST(UnorderedIterTest, CrossFileMemberDeclaration) {
  const Report r = analyze(
      {{"src/core/view.h",
        "struct View { std::unordered_map<NodeId, DcId> dc_of_node; };\n"},
       {"src/core/harness.cpp",
        "void f(const View& v) {\n"
        "  for (const auto& [node, dc] : v.dc_of_node) use(node, dc);\n"
        "}\n"}});
  ASSERT_EQ(r.active_count(), 1);
  EXPECT_EQ(r.diagnostics[0].path, "src/core/harness.cpp");
  EXPECT_EQ(r.diagnostics[0].rule, "unordered-iter");
}

// A VersionTable is hashed too: walking it directly would see hash order,
// so the rule knows its name, and its sorted() view is the sanctioned walk.
TEST(UnorderedIterTest, FiresOnVersionTableButNotItsSortedView) {
  const Report r = analyze(
      {{"src/core/fs.h", "struct Fs { storage::VersionTable<Work> work_; };\n"},
       {"src/core/fs.cpp",
        "void Fs::f() {\n"
        "  for (auto& [ov, work] : work_) step(ov, work);\n"
        "  for (auto* item : work_.sorted()) step(item->first, item->second);\n"
        "}\n"}});
  ASSERT_EQ(active_rules(r), std::vector<std::string>{"unordered-iter"});
  EXPECT_EQ(r.diagnostics[0].path, "src/core/fs.cpp");
  EXPECT_EQ(r.diagnostics[0].line, 2);
  EXPECT_NE(r.diagnostics[0].message.find("src/core/fs.h:1"),
            std::string::npos);
}

TEST(UnorderedIterTest, QuietOnOrderedContainers) {
  const Report r = run(
      "src/core/x.cpp",
      "std::map<NodeId, Handler*> handlers_;\n"
      "std::vector<int> order_;\n"
      "void f() {\n"
      "  for (const auto& [id, h] : handlers_) render(id);\n"
      "  for (int i : order_) render(i);\n"
      "}\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(UnorderedIterTest, QuietOnClassicForAndLookups) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_set<int> live_;\n"
      "bool f(int id) { return live_.count(id) > 0; }\n"
      "void g() { for (size_t i = 0; i < 4; ++i) step(i); }\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(UnorderedIterTest, AnnotationOnForLineSuppresses) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_set<NodeId> group_;\n"
      "int f() {\n"
      "  int n = 0;\n"
      "  // lint:ordered-ok(count is order-insensitive)\n"
      "  for (NodeId id : group_) n += weight(id);\n"
      "  return n;\n"
      "}\n");
  EXPECT_EQ(r.active_count(), 0);
  EXPECT_EQ(r.suppressed_count(), 1);
}

// --- prof-literal -----------------------------------------------------------

TEST(ProfLiteralTest, FiresOnNonLiteralPhaseId) {
  const Report r = run(
      "src/core/x.cpp",
      "void f(const char* phase) { obs::ProfScope prof(phase); }\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"prof-literal"});
}

TEST(ProfLiteralTest, FiresOnComputedPhaseId) {
  const Report r = run(
      "src/erasure/rs.cpp",
      "void f() { obs::ProfScope prof(kernel_phase(kEncodePhase)); }\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"prof-literal"});
}

TEST(ProfLiteralTest, QuietOnLiteralAndNullptr) {
  const Report r = run(
      "src/core/x.cpp",
      "void f() { obs::ProfScope a(\"encode\"); ProfScope b{\"x\"}; }\n"
      "void g() { obs::ProfScope c(nullptr); }\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(ProfLiteralTest, ConditionalPhaseIdNeedsAnnotation) {
  // A ternary between literals is pointer-stable, but the lexer cannot
  // prove it — the strict contract is to flag and make the author annotate.
  const Report r = run(
      "src/core/x.cpp",
      "void g(bool on) { obs::ProfScope c(on ? \"y\" : nullptr); }\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"prof-literal"});
}

TEST(ProfLiteralTest, QuietOnDeclarationSite) {
  const Report r = run(
      "src/obs/prof.h",
      "class ProfScope {\n"
      " public:\n"
      "  explicit ProfScope(const char* name);\n"
      "  ~ProfScope();\n"
      "  ProfScope(const ProfScope&) = delete;\n"
      "};\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(ProfLiteralTest, AnnotatedStaticStorageSourceSuppresses) {
  const Report r = run(
      "src/erasure/rs.cpp",
      "void f() {\n"
      "  // lint:prof-ok(kernel_phase returns a pointer into a static table)\n"
      "  obs::ProfScope prof(kernel_phase(kEncodePhase));\n"
      "}\n");
  EXPECT_EQ(r.active_count(), 0);
  EXPECT_EQ(r.suppressed_count(), 1);
}

// --- ptr-key ----------------------------------------------------------------

TEST(PtrKeyTest, FiresOnPointerKeyedMap) {
  const Report r =
      run("src/core/x.cpp", "std::map<const Version*, int> rank_;\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"ptr-key"});
}

TEST(PtrKeyTest, FiresOnPointerSet) {
  const Report r = run("src/core/x.cpp", "std::set<Node*> visited_;\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"ptr-key"});
}

TEST(PtrKeyTest, QuietOnValueKeysAndPointerValues) {
  const Report r = run(
      "src/core/x.cpp",
      "std::map<NodeId, Handler*> handlers_;\n"  // pointer *values* are fine
      "std::set<Timestamp> seen_;\n");
  EXPECT_EQ(r.active_count(), 0);
}

// --- float-digest -----------------------------------------------------------

TEST(FloatDigestTest, FiresOnFloatAccumulationInSimPlane) {
  const Report r = run(
      "src/obs/stats.cpp",
      "double sum = 0;\n"
      "void add(double v) { sum += v; }\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"float-digest"});
}

TEST(FloatDigestTest, QuietOnIntegerAccumulation) {
  const Report r = run(
      "src/obs/stats.cpp",
      "uint64_t nanos = 0;\n"
      "void add(uint64_t v) { nanos += v; }\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(FloatDigestTest, BenchesAreOutsideTheDigestPlane) {
  const Report r = run(
      "bench/micro_x.cpp",
      "double total_ms = 0;\n"
      "void lap(double v) { total_ms += v; }\n");
  EXPECT_EQ(r.active_count(), 0);
}

TEST(FloatDigestTest, AnnotatedSeedOrderAccumulationSuppresses) {
  const Report r = run(
      "src/common/stats.cpp",
      "double sum = 0;\n"
      "// lint:float-ok(partials merged in seed order; digest-stable)\n"
      "void add(double v) { sum += v; }\n");
  EXPECT_EQ(r.active_count(), 0);
  EXPECT_EQ(r.suppressed_count(), 1);
}

// --- lexer masking ----------------------------------------------------------

TEST(LexerTest, StringsCommentsAndRawStringsAreMasked) {
  const Report r = run(
      "src/core/x.cpp",
      "// steady_clock rand() getenv(\n"
      "/* std::unordered_map<int,int> ghost_; for (x : ghost_) */\n"
      "const char* a = \"rand() time( srand(\";\n"
      "const char* b = R\"(std::random_device getenv()\";\n"
      "const char c = 'r';\n");
  EXPECT_EQ(r.active_count(), 0) << r.to_text(1);
}

// --- annotation meta rules --------------------------------------------------

TEST(AnnotationTest, SuppressedCountAppearsInSummary) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_set<int> live_;\n"
      "// lint:ordered-ok(order-insensitive sum)\n"
      "int f() { int n = 0; for (int i : live_) n += i; return n; }\n");
  EXPECT_EQ(r.active_count(), 0);
  EXPECT_EQ(r.suppressed_count(), 1);
  EXPECT_NE(r.to_text(1).find("1 suppressed"), std::string::npos);
}

TEST(AnnotationTest, StaleAnnotationIsADiagnostic) {
  // The loop below no longer iterates an unordered container, so the
  // annotation must be flagged for deletion, not silently tolerated.
  const Report r = run(
      "src/core/x.cpp",
      "std::vector<int> order_;\n"
      "// lint:ordered-ok(was unordered before PR 9)\n"
      "int f() { int n = 0; for (int i : order_) n += i; return n; }\n");
  ASSERT_EQ(active_rules(r), std::vector<std::string>{"stale-annotation"});
  EXPECT_EQ(r.diagnostics[0].line, 2);
}

TEST(AnnotationTest, UnknownAnnotationNameIsADiagnostic) {
  const Report r =
      run("src/core/x.cpp", "int x = 0;  // lint:made-up-ok(nope)\n");
  EXPECT_EQ(active_rules(r), std::vector<std::string>{"bad-annotation"});
}

TEST(AnnotationTest, EmptyReasonIsADiagnostic) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_set<int> live_;\n"
      "int f() { int n = 0; for (int i : live_) n += i; return n; }"
      "  // lint:ordered-ok()\n");
  const std::vector<std::string> fired = active_rules(r);
  // The un-reasoned annotation still suppresses nothing: both the original
  // finding and the bad-annotation meta finding must be active.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], "unordered-iter");
  EXPECT_EQ(fired[1], "bad-annotation");
}

TEST(AnnotationTest, AnnotationDoesNotLeakAcrossLines) {
  const Report r = run(
      "src/core/x.cpp",
      "std::unordered_set<int> live_;\n"
      "// lint:ordered-ok(only covers the next line)\n"
      "int f() { int n = 0; for (int i : live_) n += i; return n; }\n"
      "int g() { int n = 0; for (int i : live_) n += i; return n; }\n");
  const std::vector<std::string> fired = active_rules(r);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "unordered-iter");
  EXPECT_EQ(r.suppressed_count(), 1);
}

// --- report format ----------------------------------------------------------

TEST(ReportTest, DiagnosticLinesAreFileLineRuleMessage) {
  const Report r = run("src/core/x.cpp", "int f() { return rand() % 5; }\n");
  const std::string text = r.to_text(1);
  EXPECT_NE(text.find("src/core/x.cpp:1: nondet-rand: "), std::string::npos);
  EXPECT_NE(text.find("1 files, 1 diagnostic, 0 suppressed"),
            std::string::npos);
}

TEST(SelfTest, BuiltInFixtureBatteryPasses) { EXPECT_EQ(selftest(), 0); }

}  // namespace
}  // namespace pahoehoe::lint
