#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "storage/stores.h"

namespace pahoehoe::storage {
namespace {

ObjectVersionId ov(const std::string& key, SimTime t) {
  return ObjectVersionId{Key{key}, Timestamp{t, 1}};
}

Metadata meta_with(std::initializer_list<std::pair<int, uint32_t>> slots) {
  Metadata meta{Policy{}};
  for (auto [slot, fs] : slots) {
    meta.locs[static_cast<size_t>(slot)] = Location{NodeId{fs}, 0};
  }
  return meta;
}

// --- TimestampStore ----------------------------------------------------------

TEST(TimestampStoreTest, AddAndFindSorted) {
  TimestampStore store;
  store.add(Key{"k"}, Timestamp{30, 1});
  store.add(Key{"k"}, Timestamp{10, 1});
  store.add(Key{"k"}, Timestamp{20, 1});
  const auto tss = store.find(Key{"k"});
  ASSERT_EQ(tss.size(), 3u);
  EXPECT_EQ(tss[0].wall_micros, 10);
  EXPECT_EQ(tss[2].wall_micros, 30);
}

TEST(TimestampStoreTest, AddIsIdempotent) {
  TimestampStore store;
  store.add(Key{"k"}, Timestamp{1, 1});
  store.add(Key{"k"}, Timestamp{1, 1});
  EXPECT_EQ(store.find(Key{"k"}).size(), 1u);
}

TEST(TimestampStoreTest, MissingKeyIsEmpty) {
  TimestampStore store;
  EXPECT_TRUE(store.find(Key{"nope"}).empty());
  EXPECT_FALSE(store.contains(Key{"nope"}, Timestamp{1, 1}));
}

TEST(TimestampStoreTest, KeysAreIndependent) {
  TimestampStore store;
  store.add(Key{"a"}, Timestamp{1, 1});
  store.add(Key{"b"}, Timestamp{2, 1});
  EXPECT_EQ(store.find(Key{"a"}).size(), 1u);
  EXPECT_EQ(store.find(Key{"b"}).size(), 1u);
  EXPECT_EQ(store.key_count(), 2u);
}

// --- MetaStore -----------------------------------------------------------------

TEST(MetaStoreTest, MergeCreatesEntry) {
  MetaStore store;
  EXPECT_EQ(store.find(ov("k", 1)), nullptr);
  EXPECT_FALSE(store.contains(ov("k", 1)));
  const auto created = store.merge(ov("k", 1), meta_with({{0, 5}}));
  EXPECT_TRUE(created.changed);
  EXPECT_TRUE(created.created);
  ASSERT_NE(store.find(ov("k", 1)), nullptr);
  EXPECT_EQ(store.find(ov("k", 1))->decided_count(), 1);
}

TEST(MetaStoreTest, MergeUnionsLocations) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}}));
  const auto merged = store.merge(ov("k", 1), meta_with({{1, 6}}));
  EXPECT_TRUE(merged.changed);
  EXPECT_FALSE(merged.created);
  EXPECT_EQ(store.find(ov("k", 1))->decided_count(), 2);
}

TEST(MetaStoreTest, MergeNeverRemovesLocations) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}, {1, 6}}));
  EXPECT_FALSE(store.merge(ov("k", 1), meta_with({})).changed);
  EXPECT_EQ(store.find(ov("k", 1))->decided_count(), 2);
}

TEST(MetaStoreTest, MergeExistingLocationWins) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}}));
  store.merge(ov("k", 1), meta_with({{0, 99}}));
  EXPECT_EQ(store.find(ov("k", 1))->locs[0]->fs, NodeId{5});
}

TEST(MetaStoreTest, MergeFillsValueSizeOnce) {
  MetaStore store;
  Metadata m{Policy{}, 0};
  store.merge(ov("k", 1), m);
  Metadata m2{Policy{}, 777};
  EXPECT_TRUE(store.merge(ov("k", 1), m2).changed);
  EXPECT_EQ(store.find(ov("k", 1))->value_size, 777u);
  Metadata m3{Policy{}, 888};  // does not override
  store.merge(ov("k", 1), m3);
  EXPECT_EQ(store.find(ov("k", 1))->value_size, 777u);
}

TEST(MetaStoreTest, SortedIsVersionOrder) {
  MetaStore store;
  store.merge(ov("b", 1), meta_with({}));
  store.merge(ov("a", 2), meta_with({}));
  store.merge(ov("a", 1), meta_with({}));
  const auto entries = store.sorted();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->first, ov("a", 1));
  EXPECT_EQ(entries[1]->first, ov("a", 2));
  EXPECT_EQ(entries[2]->first, ov("b", 1));
}

TEST(MetaStoreTest, MergeReturnsTheStoredMetadata) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}}));
  const Merged<Metadata> merged = store.merge(ov("k", 1), meta_with({{1, 6}}));
  EXPECT_EQ(&merged.record, store.find(ov("k", 1)));
  EXPECT_EQ(merged.record.decided_count(), 2);
}

// --- VersionTable --------------------------------------------------------------

// The table's only walk is in (key, timestamp) order, whatever the hash
// does with the keys.
TEST(VersionTableTest, SortedWalkIsVersionOrder) {
  VersionTable<int> table;
  std::vector<ObjectVersionId> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(ov("key-" + std::to_string((i * 37) % 101), i % 7));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    table.try_emplace(keys[i], static_cast<int>(i));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto sorted = table.sorted();
  ASSERT_EQ(sorted.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sorted[i]->first, keys[i]) << i;
  }
}

// Records stay where they are while the table grows, so a handler may hold
// one across inserts; every find, try_emplace and erase is one lookup.
TEST(VersionTableTest, RecordsAreStableAndLookupsCounted) {
  VersionTable<int> table;
  int* first = table.try_emplace(ov("k", 0), 7).first;
  for (int i = 1; i < 1000; ++i) table.try_emplace(ov("k", i), i);
  EXPECT_EQ(table.find(ov("k", 0)), first);
  EXPECT_EQ(*first, 7);
  EXPECT_FALSE(table.try_emplace(ov("k", 0), 9).second);
  EXPECT_EQ(*first, 7);
  EXPECT_TRUE(table.erase(ov("k", 5)));
  EXPECT_FALSE(table.contains(ov("k", 5)));
  EXPECT_EQ(table.size(), 999u);
  EXPECT_EQ(table.lookups(), 1000u + 4u);
}

// --- FragStore -----------------------------------------------------------------

Bytes frag_data(uint8_t fill = 0x42) { return Bytes(100, fill); }

/// Store `data` as fragment `index` of `ov`, creating the entry.
void put(FragStore& store, const ObjectVersionId& ov, const Metadata& meta,
         int index, const Bytes& data, uint8_t disk = 0) {
  store.put_fragment(store.upsert(ov, meta).record, index, Fragment(data),
                     Sha256::hash(data), disk);
}

TEST(FragStoreTest, PutAndRetrieveIntactFragment) {
  FragStore store;
  const Bytes data = frag_data();
  put(store, ov("k", 1), meta_with({{0, 5}}), 0, data);
  const StoredFragment* frag = store.fragment_if_intact(ov("k", 1), 0);
  ASSERT_NE(frag, nullptr);
  EXPECT_EQ(frag->data.bytes(), data);
}

TEST(FragStoreTest, MissingFragmentIsNull) {
  FragStore store;
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 0), nullptr);
  put(store, ov("k", 1), meta_with({}), 0, frag_data());
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 1), nullptr);
}

TEST(FragStoreTest, CorruptFragmentReadsAsBottom) {
  FragStore store;
  const Bytes data = frag_data();
  put(store, ov("k", 1), meta_with({}), 3, data);
  ASSERT_TRUE(store.corrupt_fragment(ov("k", 1), 3));
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 3), nullptr);
}

TEST(FragStoreTest, CorruptionCopiesOnWrite) {
  FragStore store;
  const Fragment shared = Fragment::sealed(frag_data());
  store.put_fragment(store.upsert(ov("k", 1), meta_with({})).record, 0,
                     shared, shared.digest(), 0);
  ASSERT_TRUE(store.corrupt_fragment(ov("k", 1), 0));
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 0), nullptr);
  // Another holder of the stored buffer keeps its bytes and its digest.
  EXPECT_EQ(shared.bytes(), frag_data());
  EXPECT_EQ(shared.digest(), Sha256::hash(frag_data()));
}

TEST(FragStoreTest, CorruptMissingFragmentReturnsFalse) {
  FragStore store;
  EXPECT_FALSE(store.corrupt_fragment(ov("k", 1), 0));
}

TEST(FragStoreTest, OverwriteRepairsCorruption) {
  FragStore store;
  const Bytes data = frag_data();
  put(store, ov("k", 1), meta_with({}), 0, data);
  store.corrupt_fragment(ov("k", 1), 0);
  put(store, ov("k", 1), meta_with({}), 0, data);
  EXPECT_NE(store.fragment_if_intact(ov("k", 1), 0), nullptr);
}

TEST(FragStoreTest, DestroyDiskRemovesOnlyThatDisk) {
  FragStore store;
  const Bytes data = frag_data();
  put(store, ov("k", 1), meta_with({}), 0, data, /*disk=*/0);
  put(store, ov("k", 1), meta_with({}), 1, data, /*disk=*/1);
  put(store, ov("k2", 2), meta_with({}), 5, data, /*disk=*/1);
  EXPECT_EQ(store.destroy_disk(1), 2u);
  EXPECT_NE(store.fragment_if_intact(ov("k", 1), 0), nullptr);
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 1), nullptr);
  EXPECT_EQ(store.fragment_if_intact(ov("k2", 2), 5), nullptr);
}

// upsert's result says whether the entry was created or changed; the FS
// wakes pending convergence work on it.
TEST(FragStoreTest, UpsertMergesMetadata) {
  FragStore store;
  EXPECT_TRUE(store.upsert(ov("k", 1), meta_with({{0, 5}})).changed);
  EXPECT_TRUE(store.upsert(ov("k", 1), meta_with({{1, 6}})).changed);
  EXPECT_FALSE(store.upsert(ov("k", 1), meta_with({{1, 6}})).changed);
  EXPECT_EQ(store.find(ov("k", 1))->meta.decided_count(), 2);
}

TEST(FragStoreTest, UpsertFillsValueSize) {
  FragStore store;
  EXPECT_TRUE(store.upsert(ov("k", 1), Metadata{Policy{}, 0}).changed);
  EXPECT_TRUE(store.upsert(ov("k", 1), Metadata{Policy{}, 555}).changed);
  EXPECT_FALSE(store.upsert(ov("k", 1), Metadata{Policy{}, 555}).changed);
  EXPECT_EQ(store.find(ov("k", 1))->meta.value_size, 555u);
}

TEST(FragStoreTest, SortedEnumerates) {
  FragStore store;
  store.upsert(ov("b", 1), meta_with({}));
  store.upsert(ov("a", 1), meta_with({}));
  const auto entries = store.sorted();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->first, ov("a", 1));
}

TEST(StoredFragmentTest, IntactComparesTheBuffersDigest) {
  StoredFragment frag;
  frag.data = Fragment(frag_data());
  frag.digest = Sha256::hash(frag_data());
  EXPECT_TRUE(frag.intact());
  Bytes damaged = frag_data();
  damaged[0] ^= 1;
  frag.data = Fragment(std::move(damaged));
  EXPECT_FALSE(frag.intact());
}

}  // namespace
}  // namespace pahoehoe::storage
