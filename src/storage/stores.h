// Persistent server-side stores (paper §3.2).
//
// KLSs keep a timestamp store (key → object versions) and a metadata store
// (object version → (policy, locations)). FSs keep a fragment store (object
// version → (metadata, sibling fragments)); their convergence work-list is a
// table of the same keys, kept by the FS itself. All of these model *stable
// storage*: they survive the crash-and-recover process (§3.1), so server
// classes keep them separate from volatile per-operation state.
//
// The stores keyed by object version are VersionTables: one hashed lookup
// per access, and walks only in (key, timestamp) order. The owning server
// gets mutable records back from find and from the merges, so a handler
// resolves its version once and works on the record; everyone else reads
// through a const store.
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
#include "storage/version_table.h"

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

/// A merge's outcome: the stored record, and whether the merge created it
/// or changed it.
template <typename Record>
struct Merged {
  Record& record;
  bool changed;
};

/// KLS only: object version → metadata, with union-merge semantics
/// (locations accumulate; they are never removed — AMR is stable, §3.6).
class MetaStore {
 public:
  using Table = VersionTable<Metadata>;

  /// Union `meta` into the stored entry (creating it if absent) by
  /// Metadata::merge.
  Merged<Metadata> merge(const ObjectVersionId& ov, const Metadata& meta);
  Metadata* find(const ObjectVersionId& ov) { return by_ov_.find(ov); }
  const Metadata* find(const ObjectVersionId& ov) const {
    return by_ov_.find(ov);
  }
  bool contains(const ObjectVersionId& ov) const {
    return by_ov_.contains(ov);
  }
  /// Every entry, in (key, timestamp) order.
  std::vector<const Table::value_type*> sorted() const {
    return by_ov_.sorted();
  }

 private:
  Table by_ov_;
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
    /// This FS verified the version AMR, or was told it reached AMR (§4.1).
    /// The one-bit marker persists with the entry and lets scrub tell a
    /// damaged AMR version, repaired however old, from a given-up one
    /// (DESIGN.md §9).
    bool amr = false;

    /// The fragment at `frag_index` if present and intact, else nullptr.
    const StoredFragment* intact_fragment(int frag_index) const;
  };
  using Table = VersionTable<Entry>;

  /// Create the entry for `ov` with metadata `meta`, or Metadata::merge
  /// `meta` into the existing one.
  Merged<Entry> upsert(const ObjectVersionId& ov, const Metadata& meta);
  Entry* find(const ObjectVersionId& ov) { return by_ov_.find(ov); }
  const Entry* find(const ObjectVersionId& ov) const {
    return by_ov_.find(ov);
  }
  bool contains(const ObjectVersionId& ov) const {
    return by_ov_.contains(ov);
  }
  /// Every entry, in (key, timestamp) order.
  std::vector<Table::value_type*> sorted() { return by_ov_.sorted(); }
  std::vector<const Table::value_type*> sorted() const {
    return by_ov_.sorted();
  }
  /// Hashed lookups into the store so far (see VersionTable::lookups).
  uint64_t lookups() const { return by_ov_.lookups(); }

  /// Store one fragment in `entry`, an entry of this store (overwrites a
  /// prior copy of the same index). The caller guarantees
  /// `digest == Sha256::hash(data)`, having just checked it (a verified
  /// receipt) or computed it (a regenerated fragment), and the fragment
  /// starts out with that verdict cached as intact. Stored fragments are
  /// written only by this class (the owning server reads them through its
  /// entries), so the only writers that can falsify the verdict are its own
  /// fault injectors, and corrupt_fragment resets it.
  void put_fragment(Entry& entry, int frag_index, Bytes data,
                    const Sha256::Digest& digest, uint8_t disk);

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
  Table by_ov_;
};

}  // namespace pahoehoe::storage
