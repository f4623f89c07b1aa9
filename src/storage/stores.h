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
// elides. A stored fragment is the shared buffer the message carried
// (common/fragment.h), not a copy.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/fragment.h"
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

/// A merge's outcome: the stored record, whether the merge created it or
/// changed it, and whether it created it.
template <typename Record>
struct Merged {
  Record& record;
  bool changed;
  bool created;
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
  Fragment data;
  Sha256::Digest digest{};
  uint8_t disk = 0;

  /// True iff the data still matches the digest recorded at store time.
  /// Convergence consults it per message; the buffer's memoized digest
  /// makes that a comparison, and only a buffer nobody has hashed yet (a
  /// damaged copy) is hashed, once.
  bool intact() const { return data.digest() == digest; }
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
  /// prior copy of the same index). The caller has checked `digest`
  /// against the buffer (a receipt) or taken it from the buffer (a
  /// regenerated fragment). Stored fragments are written only by this class
  /// (the owning server reads them through its entries).
  void put_fragment(Entry& entry, int frag_index, Fragment data,
                    const Sha256::Digest& digest, uint8_t disk);

  /// The fragment if present *and* intact, else nullptr (corrupted
  /// fragments read as ⊥, which triggers convergence repair).
  const StoredFragment* fragment_if_intact(const ObjectVersionId& ov,
                                           int frag_index) const;

  /// Destroy every fragment stored on `disk` (disk-failure injection).
  /// Returns the number of fragments lost.
  size_t destroy_disk(uint8_t disk);

  /// Flip a byte of a stored fragment (corruption injection for tests).
  /// Copy on write: the store gets a damaged copy in a fresh buffer, and
  /// every other holder of the old buffer keeps its bytes. Returns false if
  /// the fragment is absent or empty.
  bool corrupt_fragment(const ObjectVersionId& ov, int frag_index);

 private:
  Table by_ov_;
};

}  // namespace pahoehoe::storage
