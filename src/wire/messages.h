// Protocol messages (paper Figures 2–4 plus the §4 optimization messages).
//
// Every node runs in one address space, so the network delivers messages as
// values (a `Message`, the variant of the 18 structs) and no fault touches
// one in flight. Each struct has one field walk, `write`, that serializes
// it: `encode()` runs it into a Writer (tests, fuzzing, the codec bench)
// and `payload_size` into a SizeCounter, which is how the network charges a
// message its wire bytes. `decode` parses a payload back. Fragment bytes
// travel as a shared Fragment buffer whose digest is computed at most once.
// The Envelope carries the routing header. Message-type names follow the
// legends of the paper's Figures 5–8 so benchmark output can be compared
// line-for-line.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/fragment.h"
#include "common/sha256.h"
#include "common/types.h"
#include "wire/serde.h"

namespace pahoehoe::wire {

enum class MessageType : uint16_t {
  kDecideLocsReq = 1,    ///< proxy → KLS: suggest locations (Fig 2)
  kDecideLocsRep = 2,    ///< KLS → proxy/FS: suggested locations
  kFsDecideLocsReq = 3,  ///< FS → KLS: same request during convergence (§3.5)
  kStoreMetadataReq = 4, ///< proxy → KLS: store(ov, meta)
  kStoreMetadataRep = 5,
  kStoreFragmentReq = 6, ///< proxy → FS: store(ov, meta, frag)
  kStoreFragmentRep = 7,
  kAmrIndication = 8,    ///< proxy/FS → FS: object version is AMR (§4.1)
  kKlsConvergeReq = 9,   ///< FS → KLS: converge(ov, meta) (Fig 4)
  kKlsConvergeRep = 10,
  kFsConvergeReq = 11,   ///< FS → sibling FS: converge(ov, meta)
  kFsConvergeRep = 12,
  kRetrieveTsReq = 13,   ///< proxy → KLS: retrieve_ts(key) (Fig 3)
  kRetrieveTsRep = 14,
  kRetrieveFragReq = 15, ///< proxy/FS → FS: retrieve_frag(ov)
  kRetrieveFragRep = 16,
  kSiblingStoreReq = 17, ///< FS → sibling FS: recovered fragment push (§4.2)
  kSiblingStoreRep = 18,
  kKlsLocsNotify = 19,   ///< KLS → FS: locations decided for an FS request
};

/// Number of distinct message types (for stats arrays).
constexpr int kMessageTypeCount = 20;

const char* to_string(MessageType type);

/// Fragment store/retrieve success indicator.
enum class Status : uint8_t { kSuccess = 0, kFailure = 1 };

template <class Sink>
void encode(Sink& w, const Sha256::Digest& digest) {
  for (uint8_t b : digest) w.u8(b);
}

// --- Put path -------------------------------------------------------------

struct DecideLocsReq {
  ObjectVersionId ov;
  Policy policy;
  /// Size of the object version's value, when the requester knows it
  /// (proxies always do; FSs learned it from their fragment stores). Lets a
  /// KLS that first hears of a version through convergence record the size,
  /// so its location notifications carry enough for recovery sizing.
  uint64_t value_size = 0;
  /// True when sent by an FS during convergence (§3.5): the KLS persists its
  /// suggestion before replying and notifies the sibling FSs.
  bool from_fs = false;

  MessageType type() const {
    return from_fs ? MessageType::kFsDecideLocsReq
                   : MessageType::kDecideLocsReq;
  }
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, policy);
    w.u64(value_size);
    w.boolean(from_fs);
  }
  Bytes encode() const;
  static DecideLocsReq decode(const Bytes& payload);

  friend bool operator==(const DecideLocsReq&, const DecideLocsReq&) = default;
};

struct DecideLocsRep {
  ObjectVersionId ov;
  /// Slot-aligned suggestions: locs[i] set only for fragment indices the
  /// responding KLS's data center is responsible for.
  Metadata meta;
  DataCenterId dc;

  static constexpr MessageType kType = MessageType::kDecideLocsRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
    w.u8(dc.value);
  }
  Bytes encode() const;
  static DecideLocsRep decode(const Bytes& payload);

  friend bool operator==(const DecideLocsRep&, const DecideLocsRep&) = default;
};

struct StoreMetadataReq {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kStoreMetadataReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
  }
  Bytes encode() const;
  static StoreMetadataReq decode(const Bytes& payload);

  friend bool operator==(const StoreMetadataReq&,
                         const StoreMetadataReq&) = default;
};

struct StoreMetadataRep {
  ObjectVersionId ov;
  Status status = Status::kSuccess;
  /// Locations decided in the KLS's (merged) stored metadata at ack time.
  /// The proxy may conclude a version is AMR only from acks attesting
  /// complete metadata (decided_count == policy.n); counting a partial-
  /// metadata ack would let a lost second-round store leave a KLS
  /// permanently incomplete after the AMR indications killed convergence.
  uint16_t decided_count = 0;

  static constexpr MessageType kType = MessageType::kStoreMetadataRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.u8(static_cast<uint8_t>(status));
    w.u16(decided_count);
  }
  Bytes encode() const;
  static StoreMetadataRep decode(const Bytes& payload);

  friend bool operator==(const StoreMetadataRep&,
                         const StoreMetadataRep&) = default;
};

struct StoreFragmentReq {
  ObjectVersionId ov;
  Metadata meta;
  uint16_t frag_index = 0;
  Fragment fragment;
  Sha256::Digest digest{};

  static constexpr MessageType kType = MessageType::kStoreFragmentReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
    w.u16(frag_index);
    w.bytes(fragment.bytes());
    wire::encode(w, digest);
  }
  Bytes encode() const;
  static StoreFragmentReq decode(const Bytes& payload);

  friend bool operator==(const StoreFragmentReq&,
                         const StoreFragmentReq&) = default;
};

struct StoreFragmentRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  Status status = Status::kSuccess;

  static constexpr MessageType kType = MessageType::kStoreFragmentRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.u16(frag_index);
    w.u8(static_cast<uint8_t>(status));
  }
  Bytes encode() const;
  static StoreFragmentRep decode(const Bytes& payload);

  friend bool operator==(const StoreFragmentRep&,
                         const StoreFragmentRep&) = default;
};

struct AmrIndication {
  ObjectVersionId ov;

  static constexpr MessageType kType = MessageType::kAmrIndication;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
  }
  Bytes encode() const;
  static AmrIndication decode(const Bytes& payload);

  friend bool operator==(const AmrIndication&, const AmrIndication&) = default;
};

// --- Get path ---------------------------------------------------------------

struct RetrieveTsReq {
  Key key;
  /// Paging (§3.5: the proxy iteratively retrieves timestamps instead of
  /// all versions at once). Only versions strictly older than `before_ts`
  /// are returned (no bound when invalid), newest first, at most
  /// `max_entries` of them (0 = unlimited).
  Timestamp before_ts;
  uint16_t max_entries = 0;

  static constexpr MessageType kType = MessageType::kRetrieveTsReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, key);
    wire::encode(w, before_ts);
    w.u16(max_entries);
  }
  Bytes encode() const;
  static RetrieveTsReq decode(const Bytes& payload);

  friend bool operator==(const RetrieveTsReq&, const RetrieveTsReq&) = default;
};

struct RetrieveTsRep {
  Key key;
  struct Entry {
    Timestamp ts;
    Metadata meta;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  /// Newest-first (descending timestamp).
  std::vector<Entry> entries;
  /// True iff older versions beyond this page exist.
  bool more = false;

  static constexpr MessageType kType = MessageType::kRetrieveTsRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, key);
    w.u32(static_cast<uint32_t>(entries.size()));
    for (const Entry& entry : entries) {
      wire::encode(w, entry.ts);
      wire::encode(w, entry.meta);
    }
    w.boolean(more);
  }
  Bytes encode() const;
  static RetrieveTsRep decode(const Bytes& payload);

  friend bool operator==(const RetrieveTsRep&, const RetrieveTsRep&) = default;
};

struct RetrieveFragReq {
  ObjectVersionId ov;
  uint16_t frag_index = 0;

  static constexpr MessageType kType = MessageType::kRetrieveFragReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.u16(frag_index);
  }
  Bytes encode() const;
  static RetrieveFragReq decode(const Bytes& payload);

  friend bool operator==(const RetrieveFragReq&,
                         const RetrieveFragReq&) = default;
};

struct RetrieveFragRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  bool found = false;  ///< false ⇒ the paper's ⊥ fragment reply
  Fragment fragment;

  static constexpr MessageType kType = MessageType::kRetrieveFragRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.u16(frag_index);
    w.boolean(found);
    w.bytes(fragment.bytes());
  }
  Bytes encode() const;
  static RetrieveFragRep decode(const Bytes& payload);

  friend bool operator==(const RetrieveFragRep&,
                         const RetrieveFragRep&) = default;
};

// --- Convergence ------------------------------------------------------------

struct KlsConvergeReq {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kKlsConvergeReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
  }
  Bytes encode() const;
  static KlsConvergeReq decode(const Bytes& payload);

  friend bool operator==(const KlsConvergeReq&,
                         const KlsConvergeReq&) = default;
};

struct KlsConvergeRep {
  ObjectVersionId ov;
  bool verified = false;

  static constexpr MessageType kType = MessageType::kKlsConvergeRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.boolean(verified);
  }
  Bytes encode() const;
  static KlsConvergeRep decode(const Bytes& payload);

  friend bool operator==(const KlsConvergeRep&,
                         const KlsConvergeRep&) = default;
};

struct FsConvergeReq {
  ObjectVersionId ov;
  Metadata meta;
  /// Sibling-fragment-recovery intent flag (§4.2).
  bool intends_recovery = false;

  static constexpr MessageType kType = MessageType::kFsConvergeReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
    w.boolean(intends_recovery);
  }
  Bytes encode() const;
  static FsConvergeReq decode(const Bytes& payload);

  friend bool operator==(const FsConvergeReq&, const FsConvergeReq&) = default;
};

struct FsConvergeRep {
  ObjectVersionId ov;
  bool verified = false;
  /// Fragment indices the replying FS needs recovered (§4.2); only filled
  /// when the request had intends_recovery set.
  std::vector<uint16_t> needed_fragments;
  /// Set when the replying FS is itself attempting sibling recovery, so the
  /// requester can apply the lower-id backoff rule.
  bool also_recovering = false;

  static constexpr MessageType kType = MessageType::kFsConvergeRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.boolean(verified);
    w.u16(static_cast<uint16_t>(needed_fragments.size()));
    for (uint16_t idx : needed_fragments) w.u16(idx);
    w.boolean(also_recovering);
  }
  Bytes encode() const;
  static FsConvergeRep decode(const Bytes& payload);

  friend bool operator==(const FsConvergeRep&, const FsConvergeRep&) = default;
};

struct SiblingStoreReq {
  ObjectVersionId ov;
  Metadata meta;
  uint16_t frag_index = 0;
  Fragment fragment;
  Sha256::Digest digest{};

  static constexpr MessageType kType = MessageType::kSiblingStoreReq;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
    w.u16(frag_index);
    w.bytes(fragment.bytes());
    wire::encode(w, digest);
  }
  Bytes encode() const;
  static SiblingStoreReq decode(const Bytes& payload);

  friend bool operator==(const SiblingStoreReq&,
                         const SiblingStoreReq&) = default;
};

struct SiblingStoreRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  Status status = Status::kSuccess;

  static constexpr MessageType kType = MessageType::kSiblingStoreRep;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    w.u16(frag_index);
    w.u8(static_cast<uint8_t>(status));
  }
  Bytes encode() const;
  static SiblingStoreRep decode(const Bytes& payload);

  friend bool operator==(const SiblingStoreRep&,
                         const SiblingStoreRep&) = default;
};

struct KlsLocsNotify {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kKlsLocsNotify;
  template <class Sink>
  void write(Sink& w) const {
    wire::encode(w, ov);
    wire::encode(w, meta);
  }
  Bytes encode() const;
  static KlsLocsNotify decode(const Bytes& payload);

  friend bool operator==(const KlsLocsNotify&, const KlsLocsNotify&) = default;
};

// --- Messages as values -----------------------------------------------------

/// Any protocol message, as the network carries it between nodes.
using Message =
    std::variant<DecideLocsReq, DecideLocsRep, StoreMetadataReq,
                 StoreMetadataRep, StoreFragmentReq, StoreFragmentRep,
                 AmrIndication, RetrieveTsReq, RetrieveTsRep, RetrieveFragReq,
                 RetrieveFragRep, KlsConvergeReq, KlsConvergeRep,
                 FsConvergeReq, FsConvergeRep, SiblingStoreReq,
                 SiblingStoreRep, KlsLocsNotify>;

/// A message's wire type: its kType, or DecideLocsReq's sender-dependent one.
template <class M>
MessageType type_of(const M& msg) {
  if constexpr (requires { M::kType; }) {
    return M::kType;
  } else {
    return msg.type();
  }
}
MessageType type_of(const Message& msg);

/// Bytes the message serializes to, counted by its own field walk.
template <class M>
size_t payload_size(const M& msg) {
  SizeCounter counter;
  msg.write(counter);
  return counter.size();
}
size_t payload_size(const Message& msg);

/// Parse a `type` payload. Throws WireError if it is malformed or encodes a
/// message of another type.
Message decode(MessageType type, const Bytes& payload);

/// Routing header + message; what the Network delivers. Wire size is the
/// fixed header (14 bytes: from, to, type, payload length) plus the bytes
/// the message serializes to.
struct Envelope {
  static constexpr size_t kHeaderBytes = 14;

  NodeId from;
  NodeId to;
  MessageType type{};
  Message msg;
  /// payload_size(msg), counted once at send.
  size_t payload_bytes = 0;
  /// Span-context token (obs/span.h) propagating causality across nodes.
  /// Simulation-plane only: never serialized and excluded from wire_size(),
  /// so the paper's byte accounting is unchanged.
  uint64_t span = 0;

  size_t wire_size() const { return kHeaderBytes + payload_bytes; }
};

}  // namespace pahoehoe::wire
