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

Merged<Metadata> MetaStore::merge(const ObjectVersionId& ov,
                                  const Metadata& meta) {
  const auto [stored, inserted] = by_ov_.try_emplace(ov, meta);
  return {*stored, inserted || stored->merge(meta), inserted};
}

Merged<FragStore::Entry> FragStore::upsert(const ObjectVersionId& ov,
                                           const Metadata& meta) {
  const auto [entry, inserted] = by_ov_.try_emplace(ov);
  if (inserted) entry->meta = meta;
  return {*entry, inserted || entry->meta.merge(meta), inserted};
}

void FragStore::put_fragment(Entry& entry, int frag_index, Fragment data,
                             const Sha256::Digest& digest, uint8_t disk) {
  entry.fragments[frag_index] = StoredFragment{std::move(data), digest, disk};
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
  for (Table::value_type* item : by_ov_.sorted()) {
    auto& fragments = item->second.fragments;
    for (auto it = fragments.begin(); it != fragments.end();) {
      if (it->second.disk == disk) {
        it = fragments.erase(it);
        ++lost;
      } else {
        ++it;
      }
    }
  }
  return lost;
}

bool FragStore::corrupt_fragment(const ObjectVersionId& ov, int frag_index) {
  Entry* entry = by_ov_.find(ov);
  if (entry == nullptr) return false;
  auto it = entry->fragments.find(frag_index);
  if (it == entry->fragments.end() || it->second.data.empty()) return false;
  Bytes damaged = it->second.data.bytes();
  damaged[damaged.size() / 2] ^= 0xff;
  it->second.data = Fragment(std::move(damaged));
  return true;
}

}  // namespace pahoehoe::storage
