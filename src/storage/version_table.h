// The per-version table every store on the message path keys by object
// version: the FS fragment store and work-list, the KLS metadata store and
// the proxy's puts in flight.
//
// Lookups hash the version once; there is no string-comparing tree walk.
// Entries never move while they live (the table is node-based), so a
// handler resolves its version once and hands the record down, and the
// pointer stays valid across inserts into this or any other table.
//
// The table cannot be walked in hash order. Its one walk is sorted(), every
// entry in (key, timestamp) order, the order of the ordered maps it
// replaced, so event order, RNG draws and every digest are what they were
// whatever the hash does. pahoehoe_lint knows the type's name: a range-for
// over a VersionTable itself is flagged like one over a std::unordered_map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pahoehoe::storage {

template <typename V>
class VersionTable {
 public:
  using value_type = std::pair<const ObjectVersionId, V>;

  /// The value stored for `ov`, or nullptr.
  V* find(const ObjectVersionId& ov) {
    ++lookups_;
    const auto it = map_.find(ov);
    return it == map_.end() ? nullptr : &it->second;
  }
  const V* find(const ObjectVersionId& ov) const {
    ++lookups_;
    const auto it = map_.find(ov);
    return it == map_.end() ? nullptr : &it->second;
  }
  bool contains(const ObjectVersionId& ov) const {
    return find(ov) != nullptr;
  }

  /// The value stored for `ov`, constructed from `args` if absent, and
  /// whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const ObjectVersionId& ov, Args&&... args) {
    ++lookups_;
    const auto [it, inserted] =
        map_.try_emplace(ov, std::forward<Args>(args)...);
    return {&it->second, inserted};
  }

  /// Remove the entry for `ov`. Returns true if there was one.
  bool erase(const ObjectVersionId& ov) {
    ++lookups_;
    return map_.erase(ov) > 0;
  }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }

  /// Every entry, in (key, timestamp) order: the table's only walk. The
  /// pointers stay valid until their entries are erased.
  std::vector<value_type*> sorted() { return sorted_view<value_type>(*this); }
  std::vector<const value_type*> sorted() const {
    return sorted_view<const value_type>(*this);
  }

  /// Hashed lookups made so far (find, try_emplace, erase): a deterministic
  /// work counter for tests.
  uint64_t lookups() const { return lookups_; }

 private:
  template <typename E, typename Self>
  static std::vector<E*> sorted_view(Self& self) {
    std::vector<E*> out;
    out.reserve(self.map_.size());
    // lint:ordered-ok(collected into a vector sorted by version below)
    for (auto& entry : self.map_) out.push_back(&entry);
    std::sort(out.begin(), out.end(),
              [](const E* a, const E* b) { return a->first < b->first; });
    return out;
  }

  std::unordered_map<ObjectVersionId, V> map_;
  mutable uint64_t lookups_ = 0;
};

}  // namespace pahoehoe::storage
