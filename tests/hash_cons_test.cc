// util/hash_cons.h: the LIFO-erasing id table and the lossy computed cache.
//
// The id table is checked against a plain key list under hashes that make
// every key collide, so each probe run is one long cluster that wraps around
// the slot array; that is where an erase that breaks a run, or a growth that
// re-inserts out of id order, shows up. The cache is checked for hits, for
// the full-key compare that keeps a colliding key from reading another key's
// value, and for its overwrite count.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/hash_cons.h"

namespace pw {
namespace {

// A key list owned by the test, indexed by id like a real owner's arrays.
class KeySet {
 public:
  explicit KeySet(uint64_t constant_hash) : constant_hash_(constant_hash) {}

  uint64_t HashOf(uint64_t) const { return constant_hash_; }

  uint32_t Find(uint64_t key) const {
    return table_.Find(HashOf(key), [&](uint32_t id) {
      return id < keys_.size() && keys_[id] == key;
    });
  }

  std::pair<uint32_t, bool> Insert(uint64_t key) {
    auto result = table_.FindOrInsert(
        HashOf(key),
        [&](uint32_t id) { return id < keys_.size() && keys_[id] == key; },
        [&](uint32_t id) { return HashOf(keys_[id]); });
    if (result.second) keys_.push_back(key);
    return result;
  }

  void EraseLast() {
    table_.EraseLast(HashOf(keys_.back()));
    keys_.pop_back();
  }

  // Every live key is found under its own id, and `erased` keys are absent.
  void Check(const std::vector<uint64_t>& erased) const {
    ASSERT_EQ(table_.size(), keys_.size());
    for (size_t id = 0; id < keys_.size(); ++id) {
      ASSERT_EQ(Find(keys_[id]), id) << "live key " << keys_[id];
    }
    for (uint64_t key : erased) {
      ASSERT_EQ(Find(key), IdTable::kNone) << "erased key " << key;
    }
  }

  size_t size() const { return keys_.size(); }
  uint64_t back() const { return keys_.back(); }

 private:
  uint64_t constant_hash_;
  IdTable table_;
  std::vector<uint64_t> keys_;
};

TEST(IdTableTest, InsertFindsExistingKeys) {
  KeySet set(12345);
  EXPECT_EQ(set.Find(7), IdTable::kNone);
  EXPECT_EQ(set.Insert(7), std::make_pair(0u, true));
  EXPECT_EQ(set.Insert(9), std::make_pair(1u, true));
  EXPECT_EQ(set.Insert(7), std::make_pair(0u, false));
  EXPECT_EQ(set.Find(9), 1u);
}

TEST(IdTableTest, LifoEraseUnderConstantHashAcrossGrowth) {
  // Sixteen different constants land the one cluster at different home
  // slots, so some clusters wrap past the end of the slot array.
  for (uint64_t constant = 0; constant < 16; ++constant) {
    SCOPED_TRACE("constant hash " + std::to_string(constant));
    KeySet set(constant * 0x9e3779b97f4a7c15ull);
    std::vector<uint64_t> erased;
    uint64_t next_key = 1000;
    // Grow, shrink by LIFO erase, regrow past the next growth, and so on:
    // each phase crosses at least one growth while earlier ids stay live.
    const int targets[] = {7, 3, 12, 9, 40, 5, 70, 0, 33};
    for (int target : targets) {
      while (static_cast<int>(set.size()) < target) {
        uint64_t key = next_key++;
        ASSERT_TRUE(set.Insert(key).second);
        set.Check(erased);
      }
      while (static_cast<int>(set.size()) > target) {
        erased.push_back(set.back());
        set.EraseLast();
        set.Check(erased);
      }
    }
  }
}

TEST(IdTableTest, ErasedIdIsReusedForAnotherKey) {
  KeySet set(0);
  for (uint64_t k = 0; k < 20; ++k) set.Insert(k);
  set.EraseLast();  // key 19, id 19
  EXPECT_EQ(set.Insert(500), std::make_pair(19u, true));
  EXPECT_EQ(set.Find(19), IdTable::kNone);
  EXPECT_EQ(set.Find(500), 19u);
  set.Check({19});
}

TEST(LossyCacheTest, HitReturnsStoredValue) {
  LossyCache cache(64);
  uint32_t value = 0;
  EXPECT_FALSE(cache.Find({1, 2, 3}, &value));
  cache.Store({1, 2, 3}, 42);
  ASSERT_TRUE(cache.Find({1, 2, 3}, &value));
  EXPECT_EQ(value, 42u);
  EXPECT_FALSE(cache.Find({1, 3, 2}, &value));  // operand order is key
  EXPECT_FALSE(cache.Find({0, 2, 3}, &value));  // so is the tag
  EXPECT_EQ(cache.overwrites(), 0u);
}

TEST(LossyCacheTest, OverwriteForgetsTheOldKeyAndIsCounted) {
  LossyCache cache(1);  // every key shares the one slot
  uint32_t value = 0;
  cache.Store({0, 1, 1}, 10);
  EXPECT_EQ(cache.overwrites(), 0u);  // the slot was empty
  cache.Store({0, 1, 1}, 11);
  EXPECT_EQ(cache.overwrites(), 0u);  // same key: a refresh
  cache.Store({0, 2, 2}, 20);
  EXPECT_EQ(cache.overwrites(), 1u);
  EXPECT_FALSE(cache.Find({0, 1, 1}, &value));
  ASSERT_TRUE(cache.Find({0, 2, 2}, &value));
  EXPECT_EQ(value, 20u);
  cache.Store({0, 1, 1}, 12);
  EXPECT_EQ(cache.overwrites(), 2u);
  ASSERT_TRUE(cache.Find({0, 1, 1}, &value));
  EXPECT_EQ(value, 12u);
}

TEST(LossyCacheTest, GrowingKeepsEveryEntryAndNeverReadsAnotherKey) {
  std::mt19937 rng(4242);
  auto word = [&rng] { return static_cast<uint32_t>(rng()); };
  LossyCache cache(16);
  std::vector<LossyCache::Key> keys;
  for (uint32_t i = 0; i < 16; ++i) keys.push_back({i % 3, word(), word()});
  for (uint32_t i = 0; i < keys.size(); ++i) cache.Store(keys[i], i);
  // Whatever survived the collisions at 16 slots survives growth unchanged.
  std::vector<bool> present(keys.size());
  uint32_t value = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    present[i] = cache.Find(keys[i], &value);
    if (present[i]) {
      EXPECT_EQ(value, i);
    }
  }
  cache.Resize(1024);
  EXPECT_EQ(cache.slots(), 1024u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(cache.Find(keys[i], &value), present[i]) << "key " << i;
    if (present[i]) {
      EXPECT_EQ(value, i);
    }
  }
  // A key that was never stored is never a hit, whatever its slot holds.
  for (int probe = 0; probe < 1000; ++probe) {
    EXPECT_FALSE(cache.Find({7, word(), word()}, &value));
  }
}

}  // namespace
}  // namespace pw
