// Arena-backed kernel-statistics table.
//
// Replaces the node-based `unordered_map<KernelKey, KernelStats>` that used
// to hold K: entries live contiguously in fixed-size blocks (no per-kernel
// allocation on insert, merge, or diff) and are addressed by a dense
// 32-bit index, so the profiler's hot-path cache can hold an *index*
// instead of a pointer or a hash.  A FlatMap keyed on the (memoized) kernel
// hash maps key -> index.
//
// A table costs only the kernels it holds: a block is raw storage, an
// entry is constructed in place when it is inserted, and a copy copies
// only the size() live entries.
//
// Guarantees the rest of the system relies on:
//   * references returned by entry()/operator[]/at() are stable until the
//     next clear() or assignment (blocks never move or shrink) — exactly
//     the stability the old node-based map provided;
//   * iteration order is insertion order (first-sighting order), which is
//     deterministic for a deterministic simulation.  Consumers that need a
//     canonical order (serialization, digests, moment extraction) already
//     sort by kernel hash;
//   * the kernel hash is identity: the wire formats, the hash->key
//     registry, and eager propagation all already treat the 64-bit hash as
//     the kernel's name.  A hash collision between distinct keys is checked
//     and fatal rather than silently merged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/signature.hpp"
#include "core/stats.hpp"
#include "util/check.hpp"
#include "util/flat_map.hpp"

namespace critter::core {

class KernelArena {
 public:
  using value_type = std::pair<KernelKey, KernelStats>;
  static constexpr std::uint32_t npos = 0xffffffffu;

  KernelArena() = default;
  KernelArena(KernelArena&&) = default;
  KernelArena& operator=(KernelArena&&) = default;
  KernelArena(const KernelArena& o) { *this = o; }
  /// Copies the live entries only, block by block.
  KernelArena& operator=(const KernelArena& o) {
    if (this == &o) return *this;
    clear();
    for (std::size_t b = 0; b << kBlockShift < o.size_; ++b) {
      blocks_.push_back(new_block());
      const std::size_t n = std::min(kBlockSize, o.size_ - (b << kBlockShift));
      for (std::size_t j = 0; j < n; ++j)
        ::new (&blocks_[b][j].v) value_type(o.blocks_[b][j].v);
    }
    size_ = o.size_;
    index_ = o.index_;
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    blocks_.clear();
    size_ = 0;
    index_.clear();
  }

  value_type& entry(std::uint32_t i) {
    return blocks_[i >> kBlockShift][i & kBlockMask].v;
  }
  const value_type& entry(std::uint32_t i) const {
    return blocks_[i >> kBlockShift][i & kBlockMask].v;
  }

  /// Index of `key`, or npos.  Never inserts.
  std::uint32_t find_index(const KernelKey& key) const {
    const std::uint32_t* slot = index_.find(key.hash());
    if (slot == nullptr) return npos;
    const std::uint32_t i = *slot - 1;
    CRITTER_CHECK(entry(i).first == key, "kernel hash collision");
    return i;
  }

  /// Find-or-insert (default stats); returns {index, inserted}.
  std::pair<std::uint32_t, bool> insert_index(const KernelKey& key) {
    std::uint32_t& slot = index_[key.hash()];
    if (slot != 0) {
      const std::uint32_t i = slot - 1;
      CRITTER_CHECK(entry(i).first == key, "kernel hash collision");
      return {i, false};
    }
    if (size_ == blocks_.size() * kBlockSize) blocks_.push_back(new_block());
    const std::uint32_t i = static_cast<std::uint32_t>(size_++);
    ::new (&blocks_[i >> kBlockShift][i & kBlockMask].v)
        value_type(key, KernelStats{});
    slot = i + 1;
    return {i, true};
  }

  // --- map-compatible shims (iteration yields pair references) ---

  template <bool Const>
  class Iter {
    using ArenaP = std::conditional_t<Const, const KernelArena*, KernelArena*>;

   public:
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;
    Iter() = default;
    Iter(ArenaP a, std::uint32_t i) : a_(a), i_(i) {}
    Ref operator*() const { return a_->entry(i_); }
    Ptr operator->() const { return &a_->entry(i_); }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }
    operator Iter<true>() const { return Iter<true>(a_, i_); }

   private:
    friend class KernelArena;
    ArenaP a_ = nullptr;
    std::uint32_t i_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, static_cast<std::uint32_t>(size_)}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const {
    return {this, static_cast<std::uint32_t>(size_)};
  }

  KernelStats& operator[](const KernelKey& key) {
    return entry(insert_index(key).first).second;
  }
  std::pair<iterator, bool> try_emplace(const KernelKey& key,
                                        const KernelStats& ks) {
    const auto [i, inserted] = insert_index(key);
    if (inserted) entry(i).second = ks;
    return {iterator(this, i), inserted};
  }
  std::pair<iterator, bool> emplace(const KernelKey& key,
                                    const KernelStats& ks) {
    return try_emplace(key, ks);
  }
  iterator find(const KernelKey& key) {
    const std::uint32_t i = find_index(key);
    return i == npos ? end() : iterator(this, i);
  }
  const_iterator find(const KernelKey& key) const {
    const std::uint32_t i = find_index(key);
    return i == npos ? end() : const_iterator(this, i);
  }
  std::size_t count(const KernelKey& key) const {
    return find_index(key) == npos ? 0 : 1;
  }
  KernelStats& at(const KernelKey& key) {
    const std::uint32_t i = find_index(key);
    CRITTER_CHECK(i != npos, "KernelArena::at: no such kernel");
    return entry(i).second;
  }
  const KernelStats& at(const KernelKey& key) const {
    const std::uint32_t i = find_index(key);
    CRITTER_CHECK(i != npos, "KernelArena::at: no such kernel");
    return entry(i).second;
  }

 private:
  static constexpr std::size_t kBlockShift = 8;  // 256 entries per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::uint32_t kBlockMask =
      static_cast<std::uint32_t>(kBlockSize - 1);

  // Entries are never destroyed one by one: a block is freed whole.
  static_assert(std::is_trivially_destructible_v<value_type>);
  /// Raw storage for one entry: the empty constructor leaves `v` unbuilt
  /// until insert_index() or a copy constructs it in place.
  union Slot {
    Slot() {}
    value_type v;
  };
  static std::unique_ptr<Slot[]> new_block() {
    return std::make_unique<Slot[]>(kBlockSize);
  }

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::size_t size_ = 0;
  /// key.hash() -> entry index + 1 (0 marks an empty FlatMap slot).
  util::FlatMap<std::uint64_t, std::uint32_t, util::IdentityHash> index_;
};

}  // namespace critter::core
