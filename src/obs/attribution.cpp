#include "obs/attribution.h"

#include <algorithm>
#include <cstdio>

#include "common/stats.h"

namespace pahoehoe::obs {

namespace {

double micros_to_s(uint64_t micros) {
  return static_cast<double>(micros) / static_cast<double>(kMicrosPerSecond);
}

std::string fmt(const char* f, double a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, a);
  return buf;
}

std::optional<PathComponent> component_from_string(const std::string& name) {
  for (size_t i = 0; i < kPathComponentCount; ++i) {
    const auto c = static_cast<PathComponent>(i);
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

std::string component_us_key(PathComponent c) {
  return std::string(to_string(c)) + "_us";
}

bool read_u64(const JsonValue& v, const std::string& k, uint64_t* out) {
  const JsonValue* m = v.find(k);
  if (m == nullptr || !m->is_number()) return false;
  *out = static_cast<uint64_t>(m->number);
  return true;
}

bool read_i64(const JsonValue& v, const std::string& k, int64_t* out) {
  const JsonValue* m = v.find(k);
  if (m == nullptr || !m->is_number()) return false;
  *out = static_cast<int64_t>(m->number);
  return true;
}

bool read_double(const JsonValue& v, const std::string& k, double* out) {
  const JsonValue* m = v.find(k);
  if (m == nullptr || !m->is_number()) return false;
  *out = m->number;
  return true;
}

void cohort_to_json(JsonWriter& w, const CohortTotals& c) {
  w.begin_object()
      .kv("versions", c.versions)
      .kv("latency_us", c.latency_micros);
  for (size_t i = 0; i < kPathComponentCount; ++i) {
    w.kv(component_us_key(static_cast<PathComponent>(i)),
         c.component_micros[i]);
  }
  w.end_object();
}

bool cohort_from_json(const JsonValue& v, CohortTotals* out) {
  if (!v.is_object()) return false;
  if (!read_u64(v, "versions", &out->versions)) return false;
  if (!read_u64(v, "latency_us", &out->latency_micros)) return false;
  for (size_t i = 0; i < kPathComponentCount; ++i) {
    if (!read_u64(v, component_us_key(static_cast<PathComponent>(i)),
                  &out->component_micros[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

double CohortTotals::mean_s() const {
  if (versions == 0) return 0.0;
  return micros_to_s(latency_micros) / static_cast<double>(versions);
}

double CohortTotals::component_mean_s(PathComponent c) const {
  if (versions == 0) return 0.0;
  return micros_to_s(component_micros[static_cast<size_t>(c)]) /
         static_cast<double>(versions);
}

std::string exemplar_to_text(const Exemplar& e) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "key=%s ts=%lld/%u seed=%llu latency_us=%lld"
                " nw=%lld rs=%lld rb=%lld sp=%lld",
                e.ov.key.value.c_str(),
                static_cast<long long>(e.ov.ts.wall_micros), e.ov.ts.proxy,
                static_cast<unsigned long long>(e.seed),
                static_cast<long long>(e.latency_micros),
                static_cast<long long>(e.components[0]),
                static_cast<long long>(e.components[1]),
                static_cast<long long>(e.components[2]),
                static_cast<long long>(e.components[3]));
  return buf;
}

bool worse_than(const Exemplar& a, const Exemplar& b) {
  if (a.latency_micros != b.latency_micros) {
    return a.latency_micros > b.latency_micros;
  }
  if (a.ov != b.ov) return a.ov < b.ov;
  return a.seed < b.seed;
}

AttributionReport attribute(const std::vector<SeedPaths>& runs) {
  AttributionReport report;
  // Pass one: the latency sketch fixes the p95 threshold.
  QuantileSketch latency_s(0.01);
  for (const SeedPaths& run : runs) {
    for (const VersionCriticalPath& path : run.paths) {
      latency_s.add(micros_to_s(static_cast<uint64_t>(path.total())));
    }
  }
  report.p50_s = latency_s.quantile(0.5);
  report.p95_s = latency_s.quantile(0.95);
  report.p99_s = latency_s.quantile(0.99);
  report.max_s = latency_s.max();
  report.tail_threshold_s = report.p95_s;

  // Pass two: integer cohort totals and the worst versions, in seed order.
  for (const SeedPaths& run : runs) {
    for (const VersionCriticalPath& path : run.paths) {
      const SimTime total = path.total();
      const auto micros = static_cast<uint64_t>(total);
      // Membership is tested in the same double space the sketch was fed,
      // so the max-latency version always lands in the tail even when
      // p95 == max.
      CohortTotals& cohort = micros_to_s(micros) >= report.tail_threshold_s
                                 ? report.tail
                                 : report.body;
      ++cohort.versions;
      cohort.latency_micros += micros;
      for (size_t i = 0; i < kPathComponentCount; ++i) {
        cohort.component_micros[i] +=
            static_cast<uint64_t>(path.components[i]);
      }
      const Exemplar e{path.ov, run.seed, total, path.components};
      const auto at =
          std::lower_bound(report.top.begin(), report.top.end(), e, worse_than);
      if (static_cast<size_t>(at - report.top.begin()) <
          AttributionReport::kTopK) {
        report.top.insert(at, e);
        if (report.top.size() > AttributionReport::kTopK) report.top.pop_back();
      }
    }
  }
  report.versions = report.tail.versions + report.body.versions;

  double gap_sum = 0.0;
  for (size_t i = 0; i < kPathComponentCount; ++i) {
    const auto c = static_cast<PathComponent>(i);
    ComponentGap g;
    g.component = c;
    g.tail_mean_s = report.tail.component_mean_s(c);
    g.body_mean_s = report.body.component_mean_s(c);
    g.gap_s = g.tail_mean_s - g.body_mean_s;
    gap_sum += std::max(g.gap_s, 0.0);  // lint:float-ok(fixed 4-component order over seed-order integer totals)
    report.ranked.push_back(g);
  }
  if (gap_sum > 0.0) {
    for (ComponentGap& g : report.ranked) {
      g.gap_share = std::max(g.gap_s, 0.0) / gap_sum;
    }
  }
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const ComponentGap& a, const ComponentGap& b) {
                     return a.gap_share > b.gap_share;
                   });
  return report;
}

std::string AttributionReport::to_text() const {
  if (empty()) return "tail attribution: no resolved versions\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "tail attribution: versions %llu tail %llu body %llu "
                "(tail latency >= p95 %.6gs)\n",
                static_cast<unsigned long long>(versions),
                static_cast<unsigned long long>(tail.versions),
                static_cast<unsigned long long>(body.versions),
                tail_threshold_s);
  std::string out = buf;
  const std::string ratio =
      p50_s > 0.0 ? fmt("%.1f", p99_s / p50_s) + "x" : std::string("n/a");
  std::snprintf(buf, sizeof(buf),
                "  p50 %.6gs p95 %.6gs p99 %.6gs max %.6gs p99/p50 %s\n",
                p50_s, p95_s, p99_s, max_s, ratio.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  tail mean %.6gs body mean %.6gs gap %.6gs\n", tail.mean_s(),
                body.mean_s(), tail.mean_s() - body.mean_s());
  out += buf;
  for (const ComponentGap& g : ranked) {
    std::snprintf(buf, sizeof(buf),
                  "  %s %.1f%% of gap (tail mean %.6gs body mean %.6gs)\n",
                  to_string(g.component), g.gap_share * 100.0, g.tail_mean_s,
                  g.body_mean_s);
    out += buf;
  }
  size_t shown = 0;
  for (const Exemplar& e : top) {
    if (shown++ >= 3) break;
    out += "  top exemplar " + exemplar_to_text(e) + "\n";
  }
  return out;
}

void attribution_to_json(JsonWriter& w, const AttributionReport& report) {
  w.begin_object()
      .kv("versions", report.versions)
      .kv("p50_s", report.p50_s)
      .kv("p95_s", report.p95_s)
      .kv("p99_s", report.p99_s)
      .kv("max_s", report.max_s)
      .kv("tail_threshold_s", report.tail_threshold_s);
  w.key("tail");
  cohort_to_json(w, report.tail);
  w.key("body");
  cohort_to_json(w, report.body);
  w.key("ranked").begin_array();
  for (const ComponentGap& g : report.ranked) {
    w.begin_object()
        .kv("component", to_string(g.component))
        .kv("tail_mean_s", g.tail_mean_s)
        .kv("body_mean_s", g.body_mean_s)
        .kv("gap_s", g.gap_s)
        .kv("gap_share", g.gap_share)
        .end_object();
  }
  w.end_array();
  w.key("top_exemplars").begin_array();
  for (const Exemplar& e : report.top) {
    w.begin_object()
        .kv("key", e.ov.key.value)
        .kv("ts_wall_us", static_cast<int64_t>(e.ov.ts.wall_micros))
        .kv("ts_proxy", static_cast<uint64_t>(e.ov.ts.proxy))
        .kv("seed", e.seed)
        .kv("latency_us", static_cast<int64_t>(e.latency_micros));
    for (size_t i = 0; i < kPathComponentCount; ++i) {
      w.kv(component_us_key(static_cast<PathComponent>(i)),
           static_cast<int64_t>(e.components[i]));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::optional<AttributionReport> attribution_from_json(const JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  AttributionReport report;
  if (!read_u64(v, "versions", &report.versions)) return std::nullopt;
  if (!read_double(v, "p50_s", &report.p50_s)) return std::nullopt;
  if (!read_double(v, "p95_s", &report.p95_s)) return std::nullopt;
  if (!read_double(v, "p99_s", &report.p99_s)) return std::nullopt;
  if (!read_double(v, "max_s", &report.max_s)) return std::nullopt;
  if (!read_double(v, "tail_threshold_s", &report.tail_threshold_s)) {
    return std::nullopt;
  }
  const JsonValue* tail = v.find("tail");
  const JsonValue* body = v.find("body");
  if (tail == nullptr || !cohort_from_json(*tail, &report.tail)) {
    return std::nullopt;
  }
  if (body == nullptr || !cohort_from_json(*body, &report.body)) {
    return std::nullopt;
  }
  const JsonValue* ranked = v.find("ranked");
  if (ranked == nullptr || !ranked->is_array()) return std::nullopt;
  for (const JsonValue& rv : ranked->array) {
    const JsonValue* name = rv.find("component");
    if (name == nullptr || !name->is_string()) return std::nullopt;
    const auto c = component_from_string(name->string);
    if (!c.has_value()) return std::nullopt;
    ComponentGap g;
    g.component = *c;
    if (!read_double(rv, "tail_mean_s", &g.tail_mean_s) ||
        !read_double(rv, "body_mean_s", &g.body_mean_s) ||
        !read_double(rv, "gap_s", &g.gap_s) ||
        !read_double(rv, "gap_share", &g.gap_share)) {
      return std::nullopt;
    }
    report.ranked.push_back(g);
  }
  const JsonValue* top = v.find("top_exemplars");
  if (top == nullptr || !top->is_array()) return std::nullopt;
  for (const JsonValue& ev : top->array) {
    const JsonValue* key = ev.find("key");
    if (key == nullptr || !key->is_string()) return std::nullopt;
    Exemplar e;
    e.ov.key.value = key->string;
    int64_t wall = 0;
    uint64_t proxy = 0;
    int64_t latency = 0;
    if (!read_i64(ev, "ts_wall_us", &wall) ||
        !read_u64(ev, "ts_proxy", &proxy) || !read_u64(ev, "seed", &e.seed) ||
        !read_i64(ev, "latency_us", &latency)) {
      return std::nullopt;
    }
    e.ov.ts.wall_micros = wall;
    e.ov.ts.proxy = static_cast<uint32_t>(proxy);
    e.latency_micros = latency;
    for (size_t i = 0; i < kPathComponentCount; ++i) {
      int64_t micros = 0;
      if (!read_i64(ev, component_us_key(static_cast<PathComponent>(i)),
                    &micros)) {
        return std::nullopt;
      }
      e.components[i] = micros;
    }
    report.top.push_back(e);
  }
  return report;
}

}  // namespace pahoehoe::obs
