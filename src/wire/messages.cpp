#include "wire/messages.h"

namespace pahoehoe::wire {

namespace {

void encode_digest(Writer& w, const Sha256::Digest& digest) {
  for (uint8_t b : digest) w.u8(b);
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

Bytes DecideLocsReq::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, policy);
  w.u64(value_size);
  w.boolean(from_fs);
  return std::move(w).take();
}

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

Bytes DecideLocsRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, meta);
  w.u8(dc.value);
  return std::move(w).take();
}

DecideLocsRep DecideLocsRep::decode(const Bytes& payload) {
  Reader r(payload);
  DecideLocsRep msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.dc.value = r.u8();
  r.expect_exhausted();
  return msg;
}

Bytes StoreMetadataReq::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, meta);
  return std::move(w).take();
}

StoreMetadataReq StoreMetadataReq::decode(const Bytes& payload) {
  Reader r(payload);
  StoreMetadataReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

Bytes StoreMetadataRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.u8(static_cast<uint8_t>(status));
  w.u16(decided_count);
  return std::move(w).take();
}

StoreMetadataRep StoreMetadataRep::decode(const Bytes& payload) {
  Reader r(payload);
  StoreMetadataRep msg;
  msg.ov = decode_ov(r);
  msg.status = decode_status(r);
  msg.decided_count = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes StoreFragmentReq::encode() const {
  Writer w(Writer::kReserve + fragment.size());
  wire::encode(w, ov);
  wire::encode(w, meta);
  w.u16(frag_index);
  w.bytes(fragment);
  encode_digest(w, digest);
  return std::move(w).take();
}

StoreFragmentReq StoreFragmentReq::decode(const Bytes& payload) {
  Reader r(payload);
  StoreFragmentReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.frag_index = r.u16();
  msg.fragment = r.bytes();
  msg.digest = decode_digest(r);
  r.expect_exhausted();
  return msg;
}

Bytes StoreFragmentRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.u16(frag_index);
  w.u8(static_cast<uint8_t>(status));
  return std::move(w).take();
}

StoreFragmentRep StoreFragmentRep::decode(const Bytes& payload) {
  Reader r(payload);
  StoreFragmentRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.status = decode_status(r);
  r.expect_exhausted();
  return msg;
}

Bytes AmrIndication::encode() const {
  Writer w;
  wire::encode(w, ov);
  return std::move(w).take();
}

AmrIndication AmrIndication::decode(const Bytes& payload) {
  Reader r(payload);
  AmrIndication msg;
  msg.ov = decode_ov(r);
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveTsReq::encode() const {
  Writer w;
  wire::encode(w, key);
  wire::encode(w, before_ts);
  w.u16(max_entries);
  return std::move(w).take();
}

RetrieveTsReq RetrieveTsReq::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveTsReq msg;
  msg.key = decode_key(r);
  msg.before_ts = decode_timestamp(r);
  msg.max_entries = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveTsRep::encode() const {
  Writer w;
  wire::encode(w, key);
  w.u32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    wire::encode(w, entry.ts);
    wire::encode(w, entry.meta);
  }
  w.boolean(more);
  return std::move(w).take();
}

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

Bytes RetrieveFragReq::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.u16(frag_index);
  return std::move(w).take();
}

RetrieveFragReq RetrieveFragReq::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveFragReq msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  r.expect_exhausted();
  return msg;
}

Bytes RetrieveFragRep::encode() const {
  Writer w(Writer::kReserve + fragment.size());
  wire::encode(w, ov);
  w.u16(frag_index);
  w.boolean(found);
  w.bytes(fragment);
  return std::move(w).take();
}

RetrieveFragRep RetrieveFragRep::decode(const Bytes& payload) {
  Reader r(payload);
  RetrieveFragRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.found = r.boolean();
  msg.fragment = r.bytes();
  r.expect_exhausted();
  return msg;
}

Bytes KlsConvergeReq::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, meta);
  return std::move(w).take();
}

KlsConvergeReq KlsConvergeReq::decode(const Bytes& payload) {
  Reader r(payload);
  KlsConvergeReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

Bytes KlsConvergeRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.boolean(verified);
  return std::move(w).take();
}

KlsConvergeRep KlsConvergeRep::decode(const Bytes& payload) {
  Reader r(payload);
  KlsConvergeRep msg;
  msg.ov = decode_ov(r);
  msg.verified = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes FsConvergeReq::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, meta);
  w.boolean(intends_recovery);
  return std::move(w).take();
}

FsConvergeReq FsConvergeReq::decode(const Bytes& payload) {
  Reader r(payload);
  FsConvergeReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.intends_recovery = r.boolean();
  r.expect_exhausted();
  return msg;
}

Bytes FsConvergeRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.boolean(verified);
  w.u16(static_cast<uint16_t>(needed_fragments.size()));
  for (uint16_t idx : needed_fragments) w.u16(idx);
  w.boolean(also_recovering);
  return std::move(w).take();
}

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

Bytes SiblingStoreReq::encode() const {
  Writer w(Writer::kReserve + fragment.size());
  wire::encode(w, ov);
  wire::encode(w, meta);
  w.u16(frag_index);
  w.bytes(fragment);
  encode_digest(w, digest);
  return std::move(w).take();
}

SiblingStoreReq SiblingStoreReq::decode(const Bytes& payload) {
  Reader r(payload);
  SiblingStoreReq msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  msg.frag_index = r.u16();
  msg.fragment = r.bytes();
  msg.digest = decode_digest(r);
  r.expect_exhausted();
  return msg;
}

Bytes SiblingStoreRep::encode() const {
  Writer w;
  wire::encode(w, ov);
  w.u16(frag_index);
  w.u8(static_cast<uint8_t>(status));
  return std::move(w).take();
}

SiblingStoreRep SiblingStoreRep::decode(const Bytes& payload) {
  Reader r(payload);
  SiblingStoreRep msg;
  msg.ov = decode_ov(r);
  msg.frag_index = r.u16();
  msg.status = decode_status(r);
  r.expect_exhausted();
  return msg;
}

Bytes KlsLocsNotify::encode() const {
  Writer w;
  wire::encode(w, ov);
  wire::encode(w, meta);
  return std::move(w).take();
}

KlsLocsNotify KlsLocsNotify::decode(const Bytes& payload) {
  Reader r(payload);
  KlsLocsNotify msg;
  msg.ov = decode_ov(r);
  msg.meta = decode_metadata(r);
  r.expect_exhausted();
  return msg;
}

}  // namespace pahoehoe::wire
