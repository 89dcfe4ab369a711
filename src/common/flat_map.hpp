// Open-addressing hash map keyed by 64-bit integers.
//
// The EMS command path keys everything by a 64-bit integer (request ids,
// element keys, device ids) and never iterates in key order, so it needs
// neither an ordered tree nor a node per entry. FlatMap keeps its slots in
// one array with linear probing and backward-shift deletion (no
// tombstones): once the table has grown to its working size, insert and
// erase allocate nothing.
//
// Pointers returned by find()/try_emplace() stay valid only until the next
// insert or erase; callers that hold a value across either re-find it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace griphon {

template <typename V>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] V* find(std::uint64_t key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// The value under `key`, inserting `value` first if the key is absent;
  /// `.second` tells whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value = V{}) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.used) {
        if (s.key == key) return {&s.value, false};
        continue;
      }
      s.used = true;
      s.key = key;
      s.value = std::move(value);
      ++size_;
      return {&s.value, true};
    }
  }

  /// Remove `key`; false when it was absent.
  bool erase(std::uint64_t key) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    while (true) {
      if (!slots_[hole].used) return false;
      if (slots_[hole].key == key) break;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull later members of the probe run into the hole
    // whenever the hole lies on their path from their home slot.
    for (std::size_t i = (hole + 1) & mask_; slots_[i].used;
         i = (i + 1) & mask_) {
      const std::size_t h = home(slots_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole].key = slots_[i].key;
        slots_[hole].value = std::move(slots_[i].value);
        hole = i;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = V{};  // release what the value owned
    --size_;
    return true;
  }

  /// Drop every entry; the slot array keeps its size.
  void clear() noexcept {
    for (Slot& s : slots_) {
      if (!s.used) continue;
      s.used = false;
      s.value = V{};
    }
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    // splitmix64 finalizer: sequential ids and tagged element keys spread
    // over the whole table.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.empty() ? 16 : old.size() * 2);
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].used = true;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace griphon
