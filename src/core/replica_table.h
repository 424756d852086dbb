// The open-addressing table shared by ShardedMappingStore and
// ResolverCache: it maps a replica key — the copy of a GUID held at, or
// cached by, one AS — to a payload. It backs the read snapshots of both,
// probed lock-free by parallel readers and written only at serial points,
// and the cache's mutable LRU index. DeltaSnapshot, below, wraps it with
// the log of keys changed since the snapshot was last published.
//
// Slots sit in a power-of-two array searched by linear probing from the
// key's mixed tag. Each slot keeps the tag next to the key, so a probe
// compares one word before the 20-byte GUID. A serial write point either
// refills a whole snapshot (Reset, then Upsert per entry) or patches just
// the logged keys with Upsert and Erase. Erase uses backward-shift
// deletion: the entries after the erased slot move back to close the gap,
// so there are no tombstones, and a patched table answers every Find
// exactly like one refilled from scratch — only the slot an entry sits in
// may differ.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/guid.h"
#include "common/thread_annotations.h"
#include "topo/graph.h"

namespace dmap {

// SplitMix64-style finalizer mixing the (fingerprint, as) pair into the
// probe tag; the store also uses it (ReplicaKeyHash) as the bucket hash of
// its mutable map.
inline std::uint64_t MixTag(std::uint64_t fingerprint, AsId as) {
  std::uint64_t x = fingerprint ^ (std::uint64_t(as) * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// The copy of `guid` held at (or cached by) `as`.
struct ReplicaKey {
  Guid guid;
  AsId as = kInvalidAs;
  bool operator==(const ReplicaKey&) const = default;
};

struct ReplicaKeyHash {
  std::size_t operator()(const ReplicaKey& key) const {
    return std::size_t(MixTag(key.guid.Fingerprint64(), key.as));
  }
};

template <typename Payload>
class ReplicaTable {
 public:
  // Slot count for `count` entries: a power of two, at least 16, at <= 50%
  // load, which keeps linear-probe chains short.
  static std::size_t CapacityFor(std::size_t count) {
    std::size_t capacity = 16;
    while (capacity < count * 2) capacity <<= 1;
    return capacity;
  }

  // The payload stored for (as, guid), or nullptr. `fingerprint` is
  // guid.Fingerprint64(), passed in so a caller probing several ASes for
  // one GUID hashes it once. The pointer is invalidated by any write.
  const Payload* Find(AsId as, const Guid& guid,
                      std::uint64_t fingerprint) const DMAP_HOT_PATH {
    if (slots_.empty()) return nullptr;
    const std::uint64_t tag = MixTag(fingerprint, as);
    for (std::size_t idx = std::size_t(tag) & mask_;; idx = (idx + 1) & mask_) {
      const Slot& slot = slots_[idx];
      if (slot.as == kInvalidAs) return nullptr;
      if (slot.tag == tag && slot.as == as && slot.guid == guid) {
        return &slot.payload;
      }
    }
  }

  // Empties the table and sizes it for `count` entries (CapacityFor),
  // reusing the slot storage when the slot count is unchanged. A full
  // rebuild is Reset followed by one Upsert per entry.
  void Reset(std::size_t count) {
    const std::size_t capacity = CapacityFor(count);
    if (slots_.size() == capacity) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    } else {
      slots_.assign(capacity, Slot{});
    }
    mask_ = capacity - 1;
    size_ = 0;
  }

  // Stores `payload` for (as, guid), replacing any previous payload. The
  // table must have a free slot left (Reset sized it; callers keep patched
  // tables below full load).
  void Upsert(AsId as, const Guid& guid, const Payload& payload) {
    assert(size_ < slots_.size());
    const std::uint64_t tag = MixTag(guid.Fingerprint64(), as);
    std::size_t idx = std::size_t(tag) & mask_;
    while (slots_[idx].as != kInvalidAs) {
      Slot& slot = slots_[idx];
      if (slot.tag == tag && slot.as == as && slot.guid == guid) {
        slot.payload = payload;
        return;
      }
      idx = (idx + 1) & mask_;
    }
    slots_[idx] = Slot{tag, as, guid, payload};
    ++size_;
  }

  // Removes (as, guid); true if it was present.
  bool Erase(AsId as, const Guid& guid) {
    if (slots_.empty()) return false;
    const std::uint64_t tag = MixTag(guid.Fingerprint64(), as);
    std::size_t hole = std::size_t(tag) & mask_;
    while (true) {
      const Slot& slot = slots_[hole];
      if (slot.as == kInvalidAs) return false;
      if (slot.tag == tag && slot.as == as && slot.guid == guid) break;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: walk the rest of the chain and move back every entry
    // whose home slot does not lie cyclically in (hole, idx] — such an
    // entry would be cut off from its home by the hole.
    for (std::size_t idx = (hole + 1) & mask_; slots_[idx].as != kInvalidAs;
         idx = (idx + 1) & mask_) {
      const std::size_t home = std::size_t(slots_[idx].tag) & mask_;
      if (((idx - home) & mask_) < ((idx - hole) & mask_)) continue;
      slots_[hole] = slots_[idx];
      hole = idx;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Grows the table, keeping its entries, until `count` entries fit within
  // the 50% load bound.
  void Reserve(std::size_t count) {
    if (Fits(count)) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(CapacityFor(count), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.as == kInvalidAs) continue;
      std::size_t idx = std::size_t(slot.tag) & mask_;
      while (slots_[idx].as != kInvalidAs) idx = (idx + 1) & mask_;
      slots_[idx] = slot;
    }
  }

  // True when `count` entries sit within the table's 50% load bound; a
  // publish that would pass it refills the table at a larger size instead.
  bool Fits(std::size_t count) const { return count * 2 <= slots_.size(); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  // `as == kInvalidAs` marks an empty slot.
  struct Slot {
    std::uint64_t tag = 0;
    AsId as = kInvalidAs;
    Guid guid;
    Payload payload;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// A ReplicaTable published to parallel readers and republished at serial
// points in time proportional to the keys written since the last publish.
// The owner logs the key of every write to its authoritative state; the
// next Publish patches just those keys. The log starts in, and falls back
// to, rebuild mode, where it records nothing and the next Publish refills
// the table: before the first publish (there is no table to patch), and
// once it would hold more than a quarter of the table's slots (patching
// that many keys costs about as much as refilling, and a patch of at most
// slots/4 keys into a table at <= 50% load never fills it). Publish also
// refills when the entries outgrow the table's 50% load bound. A key may
// be logged more than once; patching it twice is harmless.
template <typename Payload>
class DeltaSnapshot {
 public:
  const Payload* Find(AsId as, const Guid& guid,
                      std::uint64_t fingerprint) const DMAP_HOT_PATH {
    return table_.Find(as, guid, fingerprint);
  }

  // Records a write to `key` of the authoritative state.
  void Log(const ReplicaKey& key) {
    if (rebuild_) return;
    if (keys_.size() >= table_.capacity() / 4) {
      rebuild_ = true;
      keys_.clear();
      return;
    }
    keys_.push_back(key);
  }

  // Makes the table answer like the authoritative state, which holds
  // `count` entries. `current(key)` returns the key's payload there, or
  // nullptr if it holds none; `fill(table)` Upserts every entry into an
  // emptied table. Returns true when it refilled rather than patched.
  template <typename Current, typename Fill>
  bool Publish(std::size_t count, const Current& current, const Fill& fill) {
    const bool refill = rebuild_ || !table_.Fits(count);
    if (refill) {
      // Insertion order only affects which of two tag-colliding entries
      // sits first in a probe chain, never a probe's answer.
      table_.Reset(count);
      fill(table_);
    } else {
      for (const ReplicaKey& key : keys_) {
        if (const Payload* payload = current(key)) {
          table_.Upsert(key.as, key.guid, *payload);
        } else {
          table_.Erase(key.as, key.guid);
        }
      }
    }
    keys_.clear();
    rebuild_ = false;
    return refill;
  }

 private:
  ReplicaTable<Payload> table_;
  std::vector<ReplicaKey> keys_;
  bool rebuild_ = true;
};

}  // namespace dmap
