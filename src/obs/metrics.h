// Deterministic metric registry for simulation-wide telemetry.
//
// Counters, gauges, and histograms keyed by (name, labels) with stable
// lexicographic iteration order. Every value is either a plain integer or a
// bucket-count sketch, so per-seed registries merge by exact addition —
// associative and commutative — and a parallel sweep folded in seed order
// is byte-identical to the serial run. All instrumentation is driven by
// simulated time, never a wall clock (see DESIGN.md), so the same seed
// always produces the same registry.
//
// Naming convention (documented in EXPERIMENTS.md): snake_case metric names
// with a `_total` suffix for counters and an `_s` suffix for histograms of
// seconds; per-node series carry a {node=nNNN} label, plus {result=...} or
// {op=...} where a metric has more dimensions. Message counts and bytes are
// not here: net::NetworkStats is their one ledger.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace pahoehoe::obs {

/// Label dimensions of one metric instance, e.g.
/// {{"node", "n101"}, {"result", "acked"}}. Keys must be unique;
/// the registry normalizes ordering, so callers may list them in any order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Render as {k=v,k=v}; empty string for no labels.
std::string to_string(const Labels& labels);

/// Monotone event count. Hot paths should grab the reference once (it stays
/// valid for the registry's lifetime) instead of re-looking-up per event.
class Counter {
 public:
  void inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricRegistry;
  uint64_t value_ = 0;
};

/// Point-in-time level with a high-water mark.
class Gauge {
 public:
  void set(int64_t v) {
    value_ = v;
    peak_ = std::max(peak_, v);
  }
  void add(int64_t delta) { set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t peak() const { return peak_; }

 private:
  friend class MetricRegistry;
  int64_t value_ = 0;
  int64_t peak_ = 0;
};

/// Distribution of non-negative samples on top of QuantileSketch (bounded
/// relative error, bucket-wise mergeable).
class Histogram {
 public:
  explicit Histogram(double relative_error = 0.01)
      : sketch_(relative_error) {}

  void observe(double x) {
    sketch_.add(x);
    // lint:float-ok(observes arrive in sim-event order; merges in seed order)
    sum_ += x;
  }
  uint64_t count() const { return sketch_.count(); }
  double sum() const { return sum_; }
  double quantile(double q) const { return sketch_.quantile(q); }
  const QuantileSketch& sketch() const { return sketch_; }

 private:
  friend class MetricRegistry;
  QuantileSketch sketch_;
  double sum_ = 0.0;
};

class MetricRegistry {
 public:
  /// Find-or-create. Returned references remain valid for the registry's
  /// lifetime (node-based map storage).
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       double relative_error = 0.01);

  /// Merge another registry in: counters add, gauges add values and peaks
  /// (a merged registry reports cross-seed totals; a "peak of the sum" is
  /// not reconstructible from partials, so the summed peak is an upper
  /// bound by design), histograms merge bucket-wise. Exact addition, so
  /// seed-order folds do not depend on how runs were scheduled.
  void merge(const MetricRegistry& other);

  /// Sum of one counter over every label set (0 if absent).
  uint64_t counter_sum(const std::string& name) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Stable multi-line dump, one metric per line in (name, labels) order:
  ///   counter proxy_puts_total{node=n100,result=acked} 42
  ///   gauge amr_backlog 3 peak 17
  ///   histogram time_to_amr_s count 97 p50 61.234 p95 118.7 p99 140.2
  /// Used directly by the determinism tests: byte equality of to_text() is
  /// the definition of "identical telemetry".
  std::string to_text() const;

 private:
  using MetricKey = std::pair<std::string, Labels>;  // (name, sorted labels)
  static MetricKey make_key(const std::string& name, const Labels& labels);

  std::map<MetricKey, Counter> counters_;
  std::map<MetricKey, Gauge> gauges_;
  std::map<MetricKey, Histogram> histograms_;
};

}  // namespace pahoehoe::obs
