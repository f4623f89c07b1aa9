#include "wire/messages.h"

namespace pahoehoe::wire {

namespace {

/// Serialize a message by its field walk into a buffer reserved at the
/// counted size.
template <class M>
Bytes encode_walk(const M& msg) {
  Writer w(payload_size(msg));
  msg.write(w);
  return std::move(w).take();
}

Sha256::Digest decode_digest(Reader& r) {
  Sha256::Digest digest{};
  for (auto& b : digest) b = r.u8();
  return digest;
}

Status decode_status(Reader& r) {
  uint8_t v = r.u8();
  if (v > 1) throw WireError("invalid status byte");
  return static_cast<Status>(v);
}

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kDecideLocsReq: return "DecideLocsReq";
    case MessageType::kDecideLocsRep: return "DecideLocsRep";
    case MessageType::kFsDecideLocsReq: return "FSDecideLocsReq";
    case MessageType::kStoreMetadataReq: return "StoreMetadataReq";
    case MessageType::kStoreMetadataRep: return "StoreMetadataRep";
    case MessageType::kStoreFragmentReq: return "StoreFragmentReq";
    case MessageType::kStoreFragmentRep: return "StoreFragmentRep";
    case MessageType::kAmrIndication: return "AMRIndication";
    case MessageType::kKlsConvergeReq: return "KLSConvergeReq";
    case MessageType::kKlsConvergeRep: return "KLSConvergeRep";
    case MessageType::kFsConvergeReq: return "FSConvergeReq";
    case MessageType::kFsConvergeRep: return "FSConvergeRep";
    case MessageType::kRetrieveTsReq: return "RetrieveTsReq";
    case MessageType::kRetrieveTsRep: return "RetrieveTsRep";
    case MessageType::kRetrieveFragReq: return "RetrieveFragReq";
    case MessageType::kRetrieveFragRep: return "RetrieveFragRep";
    case MessageType::kSiblingStoreReq: return "SiblingStoreReq";
    case MessageType::kSiblingStoreRep: return "SiblingStoreRep";
    case MessageType::kKlsLocsNotify: return "KLSLocsNotify";
  }
  return "?";
}

Bytes DecideLocsReq::encode() const { return encode_walk(*this); }

DecideLocsReq DecideLocsReq::decode(const Bytes& payload) {
  Reader r(payload);
  DecideLocsReq msg;
  msg.ov = decode_ov(r);
  msg.policy = decode_policy(r);
  msg.value_size = r.u64();
  msg.from_fs = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes DecideLocsRep::encode() const { return encode_walk(*this); }

DecideLocsRep DecideLocsRep::decode(const Bytes& payload) {
  Reader r(payload);
  DecideLocsRep msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.dc.value = r.u8();
  r.expect_exhausted();
  return msg;
}

Bytes StoreMetadataReq::encode() const { return encode_walk(*this); }

StoreMetadataReq StoreMetadataReq::decode(const Bytes& payload) {
  Reader r(payload);
  StoreMetadataReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

Bytes StoreMetadataRep::encode() const { return encode_walk(*this); }

StoreMetadataRep StoreMetadataRep::decode(const Bytes& payload) {
  Reader r(payload);
  StoreMetadataRep msg;
  msg.ov = decode_ov(r);
  msg.status = decode_status(r);
  msg.decided_count = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes StoreFragmentReq::encode() const { return encode_walk(*this); }

StoreFragmentReq StoreFragmentReq::decode(const Bytes& payload) {
  Reader r(payload);
  StoreFragmentReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.frag_index = r.u16();
  msg.fragment = Fragment(r.bytes());
  msg.digest = decode_digest(r);
  r.expect_exhausted();
  return msg;
}

Bytes StoreFragmentRep::encode() const { return encode_walk(*this); }

StoreFragmentRep StoreFragmentRep::decode(const Bytes& payload) {
  Reader r(payload);
  StoreFragmentRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.status = decode_status(r);
  r.expect_exhausted();
  return msg;
}

Bytes AmrIndication::encode() const { return encode_walk(*this); }

AmrIndication AmrIndication::decode(const Bytes& payload) {
  Reader r(payload);
  AmrIndication msg;
  msg.ov = decode_ov(r);
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveTsReq::encode() const { return encode_walk(*this); }

RetrieveTsReq RetrieveTsReq::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveTsReq msg;
  msg.key = decode_key(r);
  msg.before_ts = decode_timestamp(r);
  msg.max_entries = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveTsRep::encode() const { return encode_walk(*this); }

RetrieveTsRep RetrieveTsRep::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveTsRep msg;
  msg.key = decode_key(r);
  const uint32_t count = r.u32();
  // Do NOT reserve from a wire-controlled u32 count: a corrupted count of
  // ~2^32 would allocate gigabytes before the truncation check runs. Growth
  // during the loop is bounded by the bytes actually present.
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    entry.ts = decode_timestamp(r);
    entry.meta = decode_metadata(r);
    msg.entries.push_back(std::move(entry));
  }
  msg.more = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveFragReq::encode() const { return encode_walk(*this); }

RetrieveFragReq RetrieveFragReq::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveFragReq msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveFragRep::encode() const { return encode_walk(*this); }

RetrieveFragRep RetrieveFragRep::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveFragRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.found = r.boolean();
  msg.fragment = Fragment(r.bytes());
  r.expect_exhausted();
  return msg;
}

Bytes KlsConvergeReq::encode() const { return encode_walk(*this); }

KlsConvergeReq KlsConvergeReq::decode(const Bytes& payload) {
  Reader r(payload);
  KlsConvergeReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

Bytes KlsConvergeRep::encode() const { return encode_walk(*this); }

KlsConvergeRep KlsConvergeRep::decode(const Bytes& payload) {
  Reader r(payload);
  KlsConvergeRep msg;
  msg.ov = decode_ov(r);
  msg.verified = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes FsConvergeReq::encode() const { return encode_walk(*this); }

FsConvergeReq FsConvergeReq::decode(const Bytes& payload) {
  Reader r(payload);
  FsConvergeReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.intends_recovery = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes FsConvergeRep::encode() const { return encode_walk(*this); }

FsConvergeRep FsConvergeRep::decode(const Bytes& payload) {
  Reader r(payload);
  FsConvergeRep msg;
  msg.ov = decode_ov(r);
  msg.verified = r.boolean();
  uint16_t count = r.u16();
  msg.needed_fragments.reserve(count);
  for (uint16_t i = 0; i < count; ++i) msg.needed_fragments.push_back(r.u16());
  msg.also_recovering = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes SiblingStoreReq::encode() const { return encode_walk(*this); }

SiblingStoreReq SiblingStoreReq::decode(const Bytes& payload) {
  Reader r(payload);
  SiblingStoreReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.frag_index = r.u16();
  msg.fragment = Fragment(r.bytes());
  msg.digest = decode_digest(r);
  r.expect_exhausted();
  return msg;
}

Bytes SiblingStoreRep::encode() const { return encode_walk(*this); }

SiblingStoreRep SiblingStoreRep::decode(const Bytes& payload) {
  Reader r(payload);
  SiblingStoreRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.status = decode_status(r);
  r.expect_exhausted();
  return msg;
}

Bytes KlsLocsNotify::encode() const { return encode_walk(*this); }

KlsLocsNotify KlsLocsNotify::decode(const Bytes& payload) {
  Reader r(payload);
  KlsLocsNotify msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

MessageType type_of(const Message& msg) {
  return std::visit([](const auto& m) { return type_of(m); }, msg);
}

size_t payload_size(const Message& msg) {
  return std::visit([](const auto& m) { return payload_size(m); }, msg);
}

namespace {

Message decode_payload(MessageType type, const Bytes& payload) {
  switch (type) {
    case MessageType::kDecideLocsReq:
    case MessageType::kFsDecideLocsReq:
      return DecideLocsReq::decode(payload);
    case MessageType::kDecideLocsRep: return DecideLocsRep::decode(payload);
    case MessageType::kStoreMetadataReq:
      return StoreMetadataReq::decode(payload);
    case MessageType::kStoreMetadataRep:
      return StoreMetadataRep::decode(payload);
    case MessageType::kStoreFragmentReq:
      return StoreFragmentReq::decode(payload);
    case MessageType::kStoreFragmentRep:
      return StoreFragmentRep::decode(payload);
    case MessageType::kAmrIndication: return AmrIndication::decode(payload);
    case MessageType::kKlsConvergeReq: return KlsConvergeReq::decode(payload);
    case MessageType::kKlsConvergeRep: return KlsConvergeRep::decode(payload);
    case MessageType::kFsConvergeReq: return FsConvergeReq::decode(payload);
    case MessageType::kFsConvergeRep: return FsConvergeRep::decode(payload);
    case MessageType::kRetrieveTsReq: return RetrieveTsReq::decode(payload);
    case MessageType::kRetrieveTsRep: return RetrieveTsRep::decode(payload);
    case MessageType::kRetrieveFragReq:
      return RetrieveFragReq::decode(payload);
    case MessageType::kRetrieveFragRep:
      return RetrieveFragRep::decode(payload);
    case MessageType::kSiblingStoreReq:
      return SiblingStoreReq::decode(payload);
    case MessageType::kSiblingStoreRep:
      return SiblingStoreRep::decode(payload);
    case MessageType::kKlsLocsNotify: return KlsLocsNotify::decode(payload);
  }
  throw WireError("unknown message type");
}

}  // namespace

Message decode(MessageType type, const Bytes& payload) {
  Message msg = decode_payload(type, payload);
  if (type_of(msg) != type) {
    throw WireError("payload encodes another message type");
  }
  return msg;
}

}  // namespace pahoehoe::wire
