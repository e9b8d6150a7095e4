// Open-addressed (linear-probe) hash map for hot lookup paths.
//
// Deliberately minimal: insert, find, clear — no per-key erase.  That
// restriction removes tombstones and keeps probes short, and it matches the
// engine's table of per-key message records (a key's sequence numbers keep
// counting, so its record must outlive its queues) and the profiler's
// per-run count tables, whose key populations only grow between clears.
// Values live inline in the slot array, so probing is cache-friendly.  clear() is O(1): slots are
// tagged with a map version and stale slots read as empty.  operator[] may
// rehash, which invalidates pointers previously returned by find().
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace critter::util {

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  explicit FlatMap(std::size_t initial_capacity = 16) {
    std::size_t cap = 8;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Find-or-default-insert.  May rehash (grows at ~70% load).
  V& operator[](const K& key) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    Slot& s = slots_[probe(key)];
    if (s.tag != version_) {
      s.tag = version_;
      s.key = key;
      s.value = V{};
      ++size_;
    }
    return s.value;
  }

  /// Null if absent.  The pointer is valid until the next operator[].
  V* find(const K& key) {
    Slot& s = slots_[probe(key)];
    return s.tag == version_ ? &s.value : nullptr;
  }
  const V* find(const K& key) const {
    const Slot& s = slots_[probe(key)];
    return s.tag == version_ ? &s.value : nullptr;
  }

  /// O(1): bumps the version so every slot reads as empty.  Capacity (and
  /// any heap owned by stale values) is retained for reuse.
  void clear() {
    ++version_;
    size_ = 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.tag == version_) f(s.key, s.value);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t count(const K& key) const { return find(key) != nullptr ? 1 : 0; }

 private:
  struct Slot {
    K key{};
    V value{};
    std::uint32_t tag = 0;  // slot is live iff tag == version_
  };

  std::size_t probe(const K& key) const {
    std::size_t i = Hash{}(key)&mask_;
    while (slots_[i].tag == version_ && !(slots_[i].key == key))
      i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.tag != version_) continue;
      std::size_t i = Hash{}(s.key)&mask_;
      while (slots_[i].tag == version_) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t version_ = 1;
};

/// Identity hasher for keys that are already high-quality hashes
/// (e.g. mix64 outputs used as kernel/channel ids).
struct IdentityHash {
  std::size_t operator()(std::uint64_t v) const {
    return static_cast<std::size_t>(v);
  }
};

/// FIFO over a contiguous buffer: a vector plus a head index.  Unlike
/// std::deque it allocates nothing while empty (the engine keeps two per
/// (comm, dst, src, tag) key, almost all of them empty at any moment) and
/// compacts to offset zero whenever it drains.
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == v_.size(); }
  std::size_t size() const { return v_.size() - head_; }

  void push_back(T x) {
    if (head_ == v_.size() && head_ != 0) {
      v_.clear();
      head_ = 0;
    }
    v_.push_back(std::move(x));
  }

  T& front() { return v_[head_]; }

  void pop_front() {
    ++head_;
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};

}  // namespace critter::util
