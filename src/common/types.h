// Core domain types shared by every Pahoehoe module.
//
// These model the vocabulary of the DSN'10 paper: nodes (proxies, Key Lookup
// Servers, Fragment Servers), keys, Pahoehoe-assigned timestamps, object
// versions, durability policies, fragment locations, and object-version
// metadata (policy + locations).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace pahoehoe {

/// Raw byte buffer used for values and fragments.
using Bytes = std::vector<uint8_t>;

/// Simulated time in microseconds since simulation start.
using SimTime = int64_t;

constexpr SimTime kMicrosPerMilli = 1'000;
constexpr SimTime kMicrosPerSecond = 1'000'000;

/// Role of a node in the system; part of a node's identity for diagnostics.
enum class NodeKind : uint8_t {
  kClient = 0,
  kProxy = 1,
  kKls = 2,  ///< Key Lookup Server (metadata)
  kFs = 3,   ///< Fragment Server (data)
};

const char* to_string(NodeKind kind);

/// Globally unique node identifier assigned by the Cluster builder.
/// The numeric value doubles as the paper's "unique server id" used to break
/// ties in sibling-fragment-recovery backoff (§4.2).
struct NodeId {
  static constexpr uint32_t kInvalid = 0xffff'ffff;

  uint32_t value = kInvalid;

  constexpr bool valid() const { return value != kInvalid; }
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

/// Identifier of a data center (the paper's experiments use two).
struct DataCenterId {
  static constexpr uint8_t kInvalid = 0xff;

  uint8_t value = kInvalid;

  constexpr bool valid() const { return value != kInvalid; }
  friend constexpr auto operator<=>(DataCenterId, DataCenterId) = default;
};

/// Application-provided object name.
struct Key {
  std::string value;

  friend auto operator<=>(const Key&, const Key&) = default;
};

/// Pahoehoe-assigned version timestamp: loosely synchronized wall time
/// concatenated with the proxy's unique id (paper §3.2, proxy line 3).
/// Total order: by wall time, ties broken by proxy id.
struct Timestamp {
  SimTime wall_micros = -1;
  uint32_t proxy = NodeId::kInvalid;

  constexpr bool valid() const { return wall_micros >= 0; }
  friend constexpr auto operator<=>(const Timestamp&,
                                    const Timestamp&) = default;
};

/// Unique identifier of one object version: (key, timestamp).
struct ObjectVersionId {
  Key key;
  Timestamp ts;

  friend auto operator<=>(const ObjectVersionId&,
                          const ObjectVersionId&) = default;
};

/// Durability policy attached to a put (paper §2). The default mirrors the
/// paper: (k=4, n=12) systematic Reed-Solomon, at most 2 fragments per FS,
/// 6 fragments per data center, all k data fragments in one data center.
struct Policy {
  uint8_t k = 4;   ///< data fragments; any k of n recover the value
  uint8_t n = 12;  ///< total fragments (k data + m parity)
  uint8_t max_frags_per_fs = 2;
  uint8_t max_frags_per_dc = 6;
  /// All k data fragments placed in the proxy's local data center.
  bool data_frags_one_dc = true;
  /// Successful FS fragment-store replies required before the proxy reports
  /// success to the client ("enough (specified by the policy)", §3.2).
  uint8_t min_frags_for_success = 8;

  constexpr uint8_t m() const { return static_cast<uint8_t>(n - k); }
  /// True iff internally consistent (k ≤ n, thresholds within range, ...).
  bool valid() const;

  friend constexpr auto operator<=>(const Policy&, const Policy&) = default;
};

/// Where one fragment lives: a Fragment Server and a disk on that server
/// (§3.5: a location identifies both an FS and a disk).
struct Location {
  NodeId fs;
  uint8_t disk = 0;

  constexpr bool valid() const { return fs.valid(); }
  friend constexpr auto operator<=>(const Location&,
                                    const Location&) = default;
};

/// Object-version metadata: (policy, locations) as stored by KLSs and FSs.
/// `locs[i]` is the location of fragment index i, or nullopt while the
/// location for that fragment's data center has not been decided.
struct Metadata {
  Policy policy;
  /// Size of the original value in bytes; fragments are ceil(value_size/k)
  /// bytes each, so siblings can regenerate without seeing the value.
  uint64_t value_size = 0;
  std::vector<std::optional<Location>> locs;

  Metadata() = default;
  explicit Metadata(const Policy& p, uint64_t size = 0)
      : policy(p), value_size(size), locs(p.n, std::nullopt) {}

  /// Number of decided fragment locations.
  int decided_count() const;
  /// Complete metadata: every fragment slot has a decided location
  /// ("sufficient locations to meet the durability requirements", §3.4).
  bool complete() const;
  /// Fragment indices assigned to `fs` (at most max_frags_per_fs of them).
  std::vector<int> fragments_for(NodeId fs) const;
  /// Distinct sibling Fragment Servers, in slot order.
  std::vector<NodeId> sibling_fs() const;
  /// Union locations from `other` into this metadata (slot-wise; existing
  /// decisions win). Returns true if anything changed.
  bool merge_locs(const Metadata& other);
  /// The one metadata merge rule every store uses: merge_locs, then adopt
  /// `other`'s value_size while ours is still 0. Returns true if anything
  /// changed.
  bool merge(const Metadata& other);

  friend bool operator==(const Metadata&, const Metadata&) = default;
};

std::string to_string(NodeId id);
std::string to_string(const Timestamp& ts);
std::string to_string(const ObjectVersionId& ov);
std::string to_string(const Location& loc);

}  // namespace pahoehoe

// Hash support so ids can key unordered containers.
template <>
struct std::hash<pahoehoe::NodeId> {
  size_t operator()(pahoehoe::NodeId id) const noexcept {
    return std::hash<uint32_t>{}(id.value);
  }
};

template <>
struct std::hash<pahoehoe::Key> {
  size_t operator()(const pahoehoe::Key& k) const noexcept {
    return std::hash<std::string>{}(k.value);
  }
};

template <>
struct std::hash<pahoehoe::Timestamp> {
  size_t operator()(const pahoehoe::Timestamp& ts) const noexcept {
    size_t h = std::hash<int64_t>{}(ts.wall_micros);
    return h ^ (std::hash<uint32_t>{}(ts.proxy) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  }
};

template <>
struct std::hash<pahoehoe::ObjectVersionId> {
  size_t operator()(const pahoehoe::ObjectVersionId& ov) const noexcept {
    size_t h = std::hash<pahoehoe::Key>{}(ov.key);
    return h ^ (std::hash<pahoehoe::Timestamp>{}(ov.ts) +
                0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
};
