#include "storage/stores.h"

#include <algorithm>

#include "common/check.h"

namespace pahoehoe::storage {

void TimestampStore::add(const Key& key, const Timestamp& ts) {
  PAHOEHOE_CHECK(ts.valid());
  by_key_[key].insert(ts);
}

std::vector<Timestamp> TimestampStore::find(const Key& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return {};
  return std::vector<Timestamp>(it->second.begin(), it->second.end());
}

bool TimestampStore::contains(const Key& key, const Timestamp& ts) const {
  auto it = by_key_.find(key);
  return it != by_key_.end() && it->second.count(ts) > 0;
}

bool MetaStore::merge(const ObjectVersionId& ov, const Metadata& meta) {
  auto [it, inserted] = by_ov_.try_emplace(ov, meta);
  return inserted || it->second.merge(meta);
}

const Metadata* MetaStore::find(const ObjectVersionId& ov) const {
  auto it = by_ov_.find(ov);
  return it == by_ov_.end() ? nullptr : &it->second;
}

bool MetaStore::contains(const ObjectVersionId& ov) const {
  return by_ov_.count(ov) > 0;
}

bool StoredFragment::intact() const {
  if (!intact_cache_.has_value()) {
    intact_cache_ = Sha256::hash(data) == digest;
  }
  return *intact_cache_;
}

bool FragStore::upsert(const ObjectVersionId& ov, const Metadata& meta) {
  auto [it, inserted] = by_ov_.try_emplace(ov);
  if (inserted) it->second.meta = meta;
  return inserted || it->second.meta.merge(meta);
}

const FragStore::Entry* FragStore::find(const ObjectVersionId& ov) const {
  auto it = by_ov_.find(ov);
  return it == by_ov_.end() ? nullptr : &it->second;
}

bool FragStore::contains(const ObjectVersionId& ov) const {
  return by_ov_.count(ov) > 0;
}

void FragStore::put_fragment(const ObjectVersionId& ov, const Metadata& meta,
                             int frag_index, Bytes data,
                             const Sha256::Digest& digest, uint8_t disk) {
  upsert(ov, meta);
  StoredFragment frag;
  frag.data = std::move(data);
  frag.digest = digest;
  frag.disk = disk;
  frag.intact_cache_ = true;
  by_ov_.find(ov)->second.fragments[frag_index] = std::move(frag);
}

const StoredFragment* FragStore::Entry::intact_fragment(int frag_index) const {
  auto it = fragments.find(frag_index);
  if (it == fragments.end()) return nullptr;
  return it->second.intact() ? &it->second : nullptr;
}

const StoredFragment* FragStore::fragment_if_intact(const ObjectVersionId& ov,
                                                    int frag_index) const {
  const Entry* entry = find(ov);
  return entry == nullptr ? nullptr : entry->intact_fragment(frag_index);
}

size_t FragStore::destroy_disk(uint8_t disk) {
  size_t lost = 0;
  for (auto& [ov, entry] : by_ov_) {
    (void)ov;
    for (auto it = entry.fragments.begin(); it != entry.fragments.end();) {
      if (it->second.disk == disk) {
        it = entry.fragments.erase(it);
        ++lost;
      } else {
        ++it;
      }
    }
  }
  return lost;
}

bool FragStore::corrupt_fragment(const ObjectVersionId& ov, int frag_index) {
  auto entry = by_ov_.find(ov);
  if (entry == by_ov_.end()) return false;
  auto it = entry->second.fragments.find(frag_index);
  if (it == entry->second.fragments.end() || it->second.data.empty()) {
    return false;
  }
  it->second.data[it->second.data.size() / 2] ^= 0xff;
  it->second.invalidate_intact_cache();
  return true;
}

}  // namespace pahoehoe::storage
