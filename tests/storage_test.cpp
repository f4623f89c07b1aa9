#include <gtest/gtest.h>

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
  EXPECT_TRUE(store.merge(ov("k", 1), meta_with({{0, 5}})));
  ASSERT_NE(store.find(ov("k", 1)), nullptr);
  EXPECT_EQ(store.find(ov("k", 1))->decided_count(), 1);
}

TEST(MetaStoreTest, MergeUnionsLocations) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}}));
  EXPECT_TRUE(store.merge(ov("k", 1), meta_with({{1, 6}})));
  EXPECT_EQ(store.find(ov("k", 1))->decided_count(), 2);
}

TEST(MetaStoreTest, MergeNeverRemovesLocations) {
  MetaStore store;
  store.merge(ov("k", 1), meta_with({{0, 5}, {1, 6}}));
  EXPECT_FALSE(store.merge(ov("k", 1), meta_with({})));
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
  EXPECT_TRUE(store.merge(ov("k", 1), m2));
  EXPECT_EQ(store.find(ov("k", 1))->value_size, 777u);
  Metadata m3{Policy{}, 888};  // does not override
  store.merge(ov("k", 1), m3);
  EXPECT_EQ(store.find(ov("k", 1))->value_size, 777u);
}

TEST(MetaStoreTest, EntriesStableOrder) {
  MetaStore store;
  store.merge(ov("b", 1), meta_with({}));
  store.merge(ov("a", 2), meta_with({}));
  store.merge(ov("a", 1), meta_with({}));
  ASSERT_EQ(store.entries().size(), 3u);
  auto it = store.entries().begin();
  EXPECT_EQ(it->first.key.value, "a");
  EXPECT_EQ(it->first.ts.wall_micros, 1);
  EXPECT_EQ(std::next(it, 2)->first.key.value, "b");
}

// --- FragStore -----------------------------------------------------------------

Bytes frag_data(uint8_t fill = 0x42) { return Bytes(100, fill); }

TEST(FragStoreTest, PutAndRetrieveIntactFragment) {
  FragStore store;
  const Bytes data = frag_data();
  store.put_fragment(ov("k", 1), meta_with({{0, 5}}), 0, data,
                     Sha256::hash(data), 0);
  const StoredFragment* frag = store.fragment_if_intact(ov("k", 1), 0);
  ASSERT_NE(frag, nullptr);
  EXPECT_EQ(frag->data, data);
}

TEST(FragStoreTest, MissingFragmentIsNull) {
  FragStore store;
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 0), nullptr);
  store.put_fragment(ov("k", 1), meta_with({}), 0, frag_data(),
                     Sha256::hash(frag_data()), 0);
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 1), nullptr);
}

TEST(FragStoreTest, CorruptFragmentReadsAsBottom) {
  FragStore store;
  const Bytes data = frag_data();
  store.put_fragment(ov("k", 1), meta_with({}), 3, data, Sha256::hash(data),
                     0);
  ASSERT_TRUE(store.corrupt_fragment(ov("k", 1), 3));
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 3), nullptr);
}

TEST(FragStoreTest, CorruptMissingFragmentReturnsFalse) {
  FragStore store;
  EXPECT_FALSE(store.corrupt_fragment(ov("k", 1), 0));
}

TEST(FragStoreTest, OverwriteRepairsCorruption) {
  FragStore store;
  const Bytes data = frag_data();
  store.put_fragment(ov("k", 1), meta_with({}), 0, data, Sha256::hash(data),
                     0);
  store.corrupt_fragment(ov("k", 1), 0);
  store.put_fragment(ov("k", 1), meta_with({}), 0, data, Sha256::hash(data),
                     0);
  EXPECT_NE(store.fragment_if_intact(ov("k", 1), 0), nullptr);
}

TEST(FragStoreTest, DestroyDiskRemovesOnlyThatDisk) {
  FragStore store;
  const Bytes data = frag_data();
  store.put_fragment(ov("k", 1), meta_with({}), 0, data, Sha256::hash(data),
                     /*disk=*/0);
  store.put_fragment(ov("k", 1), meta_with({}), 1, data, Sha256::hash(data),
                     /*disk=*/1);
  store.put_fragment(ov("k2", 2), meta_with({}), 5, data, Sha256::hash(data),
                     /*disk=*/1);
  EXPECT_EQ(store.destroy_disk(1), 2u);
  EXPECT_NE(store.fragment_if_intact(ov("k", 1), 0), nullptr);
  EXPECT_EQ(store.fragment_if_intact(ov("k", 1), 1), nullptr);
  EXPECT_EQ(store.fragment_if_intact(ov("k2", 2), 5), nullptr);
}

// upsert's result says whether the entry was created or changed; the FS
// wakes pending convergence work on it.
TEST(FragStoreTest, UpsertMergesMetadata) {
  FragStore store;
  EXPECT_TRUE(store.upsert(ov("k", 1), meta_with({{0, 5}})));
  EXPECT_TRUE(store.upsert(ov("k", 1), meta_with({{1, 6}})));
  EXPECT_FALSE(store.upsert(ov("k", 1), meta_with({{1, 6}})));
  EXPECT_EQ(store.find(ov("k", 1))->meta.decided_count(), 2);
}

TEST(FragStoreTest, UpsertFillsValueSize) {
  FragStore store;
  EXPECT_TRUE(store.upsert(ov("k", 1), Metadata{Policy{}, 0}));
  EXPECT_TRUE(store.upsert(ov("k", 1), Metadata{Policy{}, 555}));
  EXPECT_FALSE(store.upsert(ov("k", 1), Metadata{Policy{}, 555}));
  EXPECT_EQ(store.find(ov("k", 1))->meta.value_size, 555u);
}

TEST(FragStoreTest, EntriesEnumerates) {
  FragStore store;
  store.upsert(ov("a", 1), meta_with({}));
  store.upsert(ov("b", 1), meta_with({}));
  EXPECT_EQ(store.entries().size(), 2u);
}

TEST(StoredFragmentTest, IntactChecksDigestWithCache) {
  StoredFragment frag;
  frag.data = frag_data();
  frag.digest = Sha256::hash(frag.data);
  EXPECT_TRUE(frag.intact());
  frag.data[0] ^= 1;
  // The verification result is cached until explicitly invalidated (the
  // fault-injection entry points do this).
  EXPECT_TRUE(frag.intact());
  frag.invalidate_intact_cache();
  EXPECT_FALSE(frag.intact());
}

}  // namespace
}  // namespace pahoehoe::storage
