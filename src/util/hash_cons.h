// Flat hash-consing primitives: an id table and a lossy computed cache.
//
// Hash-consing maps a key to a dense id and stores the key once, in the
// owner's own arrays (a decision-diagram node vector, a term vector). Both
// structures here keep only fixed-size slots in one contiguous array, so a
// probe is a few loads with no per-entry heap node, and a grown structure
// allocates nothing until it must grow again.
//
// IdTable is the unique table: an open-addressing set of the dense ids
// [0, size()). It never sees a key; a probe asks the owner whether the key
// stored under a candidate id matches, and growth asks the owner for the hash
// of an id's key. Capacity is a power of two, probing is linear, and the
// table is kept at most half full.
//
// Erase is LIFO only: EraseLast removes id size() - 1 by clearing its slot,
// with no tombstone and no shifting. That is exact under linear probing. The
// slot array is always the one that inserting the live ids in id order into
// an empty table would give: Insert writes one slot, and growth re-inserts
// ids 0, 1, ... in that order. Inserting the last id wrote exactly one slot,
// so clearing that slot gives the table of the remaining ids. No probe run
// breaks, because every remaining id found its own slot before the last id
// was there.
//
// LossyCache is a direct-mapped computed table, as in CUDD (Somenzi): one
// entry per slot, a store overwrites whatever the slot held, and a lookup
// compares the full key. It forgets, so it only memoizes results that can be
// recomputed; it never grows by itself, so its memory is fixed by its owner.
// Stores that overwrite a live entry with a different key are counted.

#ifndef PW_UTIL_HASH_CONS_H_
#define PW_UTIL_HASH_CONS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pw {

/// Slot of `hash` in a power-of-two table with the given mask. Mixes first,
/// so callers may combine key words cheaply. Keeps the low bits of the mixed
/// value: doubling a table sends slot i to i or i + old capacity.
inline size_t HashSlot(uint64_t hash, size_t mask) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return static_cast<size_t>(hash) & mask;
}

/// Order-sensitive combination of a running hash and one more key word.
inline uint64_t HashCombine(uint64_t hash, uint64_t word) {
  return hash * 0x9e3779b97f4a7c15ull ^ word;
}

class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Live ids: exactly [0, size()).
  size_t size() const { return size_; }

  /// The id whose key hashes to `hash` and satisfies `matches(id)`, or kNone.
  template <typename Match>
  uint32_t Find(uint64_t hash, Match&& matches) const {
    if (size_ == 0) return kNone;
    for (size_t i = HashSlot(hash, mask_);; i = (i + 1) & mask_) {
      uint32_t id = slots_[i];
      if (id == kNone) return kNone;
      if (matches(id)) return id;
    }
  }

  /// Find, or else take the next id (size()) for the key and return it with
  /// `true`; the caller then stores the key at that index. `hash_of(id)`
  /// must return the hash of a live id's key (growth re-inserts them).
  template <typename Match, typename HashOf>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, Match&& matches,
                                         HashOf&& hash_of) {
    size_t i = 0;
    if (!slots_.empty()) {
      for (i = HashSlot(hash, mask_);; i = (i + 1) & mask_) {
        uint32_t id = slots_[i];
        if (id == kNone) break;
        if (matches(id)) return {id, false};
      }
    }
    auto id = static_cast<uint32_t>(size_);
    assert(id != kNone);
    if (2 * (size_ + 1) > slots_.size()) {
      Grow(hash_of);
      i = EmptySlot(hash);
    }
    slots_[i] = id;
    ++size_;
    return {id, true};
  }

  /// Removes the most recently inserted live id, whose key hashes to `hash`
  /// (see the file comment for why clearing its slot is exact).
  void EraseLast(uint64_t hash) {
    assert(size_ > 0);
    auto last = static_cast<uint32_t>(size_ - 1);
    size_t i = HashSlot(hash, mask_);
    while (slots_[i] != last) {
      assert(slots_[i] != kNone);
      i = (i + 1) & mask_;
    }
    slots_[i] = kNone;
    --size_;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t EmptySlot(uint64_t hash) const {
    size_t i = HashSlot(hash, mask_);
    while (slots_[i] != kNone) i = (i + 1) & mask_;
    return i;
  }

  template <typename HashOf>
  void Grow(HashOf&& hash_of) {
    size_t slots = slots_.empty() ? kMinSlots : 2 * slots_.size();
    slots_.assign(slots, kNone);
    mask_ = slots - 1;
    // Id order, not old-slot order: the LIFO erase relies on it.
    for (size_t i = 0; i < size_; ++i) {
      auto id = static_cast<uint32_t>(i);
      slots_[EmptySlot(hash_of(id))] = id;
    }
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

class LossyCache {
 public:
  /// An operation tag and its two operands. The tag UINT32_MAX is reserved.
  struct Key {
    uint32_t tag;
    uint32_t a;
    uint32_t b;
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// `slots` must be a power of two.
  explicit LossyCache(size_t slots) { Resize(slots); }

  size_t slots() const { return entries_.size(); }

  /// Stores that overwrote a live entry with a different key.
  uint64_t overwrites() const { return overwrites_; }

  /// True, with the stored value, iff `key`'s slot holds `key`.
  bool Find(const Key& key, uint32_t* value) const {
    const Entry& e = entries_[SlotOf(key)];
    if (!(e.key == key)) return false;
    *value = e.value;
    return true;
  }

  void Store(const Key& key, uint32_t value) {
    assert(key.tag != kEmptyTag);
    Entry& e = entries_[SlotOf(key)];
    if (e.key.tag != kEmptyTag && !(e.key == key)) ++overwrites_;
    e = Entry{key, value};
  }

  /// Re-sizes to `slots` (a power of two) and re-places the live entries in
  /// old slot order; when shrinking, a later entry replaces an earlier one
  /// in the same slot. Re-placement is not a store and is not counted.
  void Resize(size_t slots) {
    assert(slots != 0 && (slots & (slots - 1)) == 0);
    std::vector<Entry> old(slots, Entry{Key{kEmptyTag, 0, 0}, 0});
    old.swap(entries_);
    for (const Entry& e : old) {
      if (e.key.tag != kEmptyTag) entries_[SlotOf(e.key)] = e;
    }
  }

 private:
  static constexpr uint32_t kEmptyTag = UINT32_MAX;

  struct Entry {
    Key key;
    uint32_t value;
  };

  size_t SlotOf(const Key& key) const {
    uint64_t h = HashCombine(HashCombine(key.tag, key.a), key.b);
    return HashSlot(h, entries_.size() - 1);
  }

  std::vector<Entry> entries_;
  uint64_t overwrites_ = 0;
};

}  // namespace pw

#endif  // PW_UTIL_HASH_CONS_H_
