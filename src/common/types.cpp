#include "common/types.h"

#include <algorithm>

#include "common/check.h"

namespace pahoehoe {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kClient:
      return "client";
    case NodeKind::kProxy:
      return "proxy";
    case NodeKind::kKls:
      return "kls";
    case NodeKind::kFs:
      return "fs";
  }
  return "?";
}

bool Policy::valid() const {
  if (k == 0 || n < k) return false;
  if (max_frags_per_fs == 0 || max_frags_per_dc == 0) return false;
  if (min_frags_for_success > n) return false;
  return true;
}

int Metadata::decided_count() const {
  return static_cast<int>(
      std::count_if(locs.begin(), locs.end(),
                    [](const auto& l) { return l.has_value(); }));
}

bool Metadata::complete() const {
  return !locs.empty() && decided_count() == static_cast<int>(locs.size());
}

std::vector<int> Metadata::fragments_for(NodeId fs) const {
  std::vector<int> out;
  for (size_t i = 0; i < locs.size(); ++i) {
    if (locs[i].has_value() && locs[i]->fs == fs) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<NodeId> Metadata::sibling_fs() const {
  std::vector<NodeId> out;
  for (const auto& loc : locs) {
    if (!loc.has_value()) continue;
    if (std::find(out.begin(), out.end(), loc->fs) == out.end()) {
      out.push_back(loc->fs);
    }
  }
  return out;
}

bool Metadata::merge_locs(const Metadata& other) {
  PAHOEHOE_CHECK_MSG(locs.size() == other.locs.size() || other.locs.empty() ||
                         locs.empty(),
                     "metadata merge across incompatible policies");
  if (locs.empty()) locs.resize(other.locs.size());
  bool changed = false;
  for (size_t i = 0; i < other.locs.size() && i < locs.size(); ++i) {
    if (!locs[i].has_value() && other.locs[i].has_value()) {
      locs[i] = other.locs[i];
      changed = true;
    }
  }
  return changed;
}

bool Metadata::merge(const Metadata& other) {
  bool changed = merge_locs(other);
  if (value_size == 0 && other.value_size != 0) {
    value_size = other.value_size;
    changed = true;
  }
  return changed;
}

std::string to_string(NodeId id) {
  return id.valid() ? "n" + std::to_string(id.value) : "n?";
}

std::string to_string(const Timestamp& ts) {
  if (!ts.valid()) return "ts(⊥)";
  return "ts(" + std::to_string(ts.wall_micros) + "." +
         std::to_string(ts.proxy) + ")";
}

std::string to_string(const ObjectVersionId& ov) {
  return "ov(" + ov.key.value + "," + to_string(ov.ts) + ")";
}

std::string to_string(const Location& loc) {
  return to_string(loc.fs) + "/d" + std::to_string(loc.disk);
}

}  // namespace pahoehoe
