// Persistent server-side stores (paper §3.2).
//
// KLSs keep a timestamp store (key → object versions) and a metadata store
// (object version → (policy, locations)). FSs keep a fragment store (object
// version → (metadata, sibling fragments)); their convergence work-list is a
// key set over it, kept by the FS itself. All of these model *stable
// storage*: they survive the crash-and-recover process (§3.1), so server
// classes keep them separate from volatile per-operation state.
//
// Fragments are stored with a SHA-256 digest and a disk id, supporting the
// corruption-detection and disk-rebuild behaviours the paper mentions but
// elides.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/sha256.h"
#include "common/types.h"

namespace pahoehoe::storage {

/// KLS: key → set of version timestamps.
class TimestampStore {
 public:
  /// Record a version timestamp for a key (idempotent).
  void add(const Key& key, const Timestamp& ts);
  /// All timestamps known for the key (empty if none), ascending.
  std::vector<Timestamp> find(const Key& key) const;
  bool contains(const Key& key, const Timestamp& ts) const;
  size_t key_count() const { return by_key_.size(); }

 private:
  std::unordered_map<Key, std::set<Timestamp>> by_key_;
};

/// KLS only: object version → metadata, with union-merge semantics
/// (locations accumulate; they are never removed — AMR is stable, §3.6).
class MetaStore {
 public:
  /// Union `meta` into the stored entry (creating it if absent) by
  /// Metadata::merge. Returns true if the stored entry changed.
  bool merge(const ObjectVersionId& ov, const Metadata& meta);
  const Metadata* find(const ObjectVersionId& ov) const;
  bool contains(const ObjectVersionId& ov) const;
  /// Every entry, in stable (key, timestamp) order.
  const std::map<ObjectVersionId, Metadata>& entries() const { return by_ov_; }

 private:
  std::map<ObjectVersionId, Metadata> by_ov_;
};

/// One fragment at rest: bytes + integrity digest + the disk that holds it.
struct StoredFragment {
  Bytes data;
  Sha256::Digest digest{};
  uint8_t disk = 0;

  /// True iff the data still matches the digest. The verdict is cached
  /// (convergence consults it per message). FragStore::put_fragment sets
  /// it at store time, from the check its caller just made, so a stored
  /// fragment is never re-hashed until fault injection that mutates the
  /// data invalidates the cache.
  bool intact() const;
  void invalidate_intact_cache() { intact_cache_.reset(); }

 private:
  friend class FragStore;
  mutable std::optional<bool> intact_cache_;
};

/// FS: object version → (metadata, fragment map). A fragment index missing
/// from `fragments` is the paper's ⊥ fragment.
class FragStore {
 public:
  struct Entry {
    Metadata meta;
    std::map<int, StoredFragment> fragments;

    /// The fragment at `frag_index` if present and intact, else nullptr.
    const StoredFragment* intact_fragment(int frag_index) const;
  };

  /// Create the entry for `ov` with metadata `meta`, or Metadata::merge
  /// `meta` into the existing one. Returns true if the entry was created or
  /// its metadata changed.
  bool upsert(const ObjectVersionId& ov, const Metadata& meta);
  const Entry* find(const ObjectVersionId& ov) const;
  bool contains(const ObjectVersionId& ov) const;
  /// Every entry, in stable (key, timestamp) order.
  const std::map<ObjectVersionId, Entry>& entries() const { return by_ov_; }

  /// Store one fragment (overwrites a prior copy of the same index). The
  /// caller guarantees `digest == Sha256::hash(data)`, having just checked
  /// it (a verified receipt) or computed it (a regenerated fragment), and
  /// the fragment starts out with that verdict cached as intact. Stored
  /// fragments are handed out only through const views, so the only
  /// writers that can falsify the verdict are this class's own fault
  /// injectors, and corrupt_fragment resets it.
  void put_fragment(const ObjectVersionId& ov, const Metadata& meta,
                    int frag_index, Bytes data, const Sha256::Digest& digest,
                    uint8_t disk);

  /// The fragment if present *and* intact, else nullptr (corrupted
  /// fragments read as ⊥, which triggers convergence repair).
  const StoredFragment* fragment_if_intact(const ObjectVersionId& ov,
                                           int frag_index) const;

  /// Destroy every fragment stored on `disk` (disk-failure injection).
  /// Returns the number of fragments lost.
  size_t destroy_disk(uint8_t disk);

  /// Flip a byte of a stored fragment (corruption injection for tests).
  /// Returns false if the fragment is absent or empty.
  bool corrupt_fragment(const ObjectVersionId& ov, int frag_index);

 private:
  std::map<ObjectVersionId, Entry> by_ov_;
};

}  // namespace pahoehoe::storage
