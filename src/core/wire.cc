#include "core/wire.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace critter::core {

namespace {

/// Visit `tilde` as a piggyback carries it: every entry in table order when
/// it fits in `cap`, else the `cap` highest-frequency entries (they matter
/// most for the sqrt(k) shrink), deterministically ordered.
template <class F>
void for_each_carried(const RankProfiler::CountMap& tilde, int cap, F&& f) {
  if (static_cast<int>(tilde.size()) <= cap) {
    tilde.for_each(f);
    return;
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> order;
  order.reserve(tilde.size());
  tilde.for_each(
      [&](std::uint64_t key, std::int64_t freq) { order.push_back({freq, key}); });
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  order.resize(cap);
  for (const auto& [freq, key] : order) f(key, freq);
}

/// Visit the entries a rank offers for eager aggregation along `chan_hash`
/// (steady, not yet globally propagated, coverage extendable), at most
/// cfg.eager_capacity of them.
template <class F>
void for_each_eager_entry(const RankProfiler& rp, const Config& cfg,
                          std::uint64_t chan_hash, F&& f) {
  if (cfg.policy != Policy::EagerPropagation) return;
  const double z = normal_quantile_cached(cfg.confidence);
  int n = 0;
  for (const auto& [key, ks] : rp.table.K) {
    if (n >= cfg.eager_capacity) break;
    if (ks.global_steady || ks.n < cfg.min_samples) continue;
    if (!ks.is_steady(z, cfg.tolerance, 1, cfg.min_samples)) continue;
    std::uint64_t combined = 0;
    if (!rp.table.channels.try_extend_coverage(ks.agg_hash, chan_hash, &combined))
      continue;
    f(WireEager{key.hash(), ks.agg_hash, ks.n, ks.mean, ks.m2});
    ++n;
  }
}

/// Eager statistics aggregation (paper Fig. 2 aggregate_statistics): fold
/// the agreed entries into the rank's K, or stash them for kernels it has
/// not seen yet, and extend their channel coverage.
void merge_eager_into(RankProfiler& rp, const Config& cfg,
                      std::uint64_t chan_hash,
                      const std::vector<WireEager>& entries) {
  if (entries.empty()) return;
  const double z = normal_quantile_cached(cfg.confidence);
  for (const WireEager& e : entries) {
    const auto kit = rp.table.key_of_hash.find(e.key);
    KernelStats incoming;
    incoming.n = e.n;
    incoming.mean = e.mean;
    incoming.m2 = e.m2;
    if (kit == rp.table.key_of_hash.end()) {
      // Kernel not seen locally yet: stash; merged when first encountered.
      KernelStats& pend = rp.table.pending_eager[e.key];
      pend.merge(incoming);
      std::uint64_t combined = 0;
      if (rp.table.channels.try_extend_coverage(e.agg, chan_hash, &combined))
        pend.agg_hash = combined;
      continue;
    }
    KernelStats& ks = rp.table.K.at(kit->second);
    if (ks.global_steady) continue;
    // Only merge when the aggregation base matches ours; otherwise the
    // sample sets could overlap (the bias the paper's channel algebra
    // exists to prevent).  Exception: a fresh local kernel (agg 0) adopts.
    // Open rule (DESIGN §3): the agreed entry already holds this rank's own
    // (n, mean, m2), so merging it back counts the rank's samples twice.
    if (ks.agg_hash != e.agg && ks.agg_hash != 0) continue;
    ks.merge(incoming);
    std::uint64_t combined = 0;
    if (rp.table.channels.try_extend_coverage(e.agg, chan_hash, &combined)) {
      ks.agg_hash = combined;
      if (rp.table.channels.covers_world(combined) &&
          ks.is_steady(z, cfg.tolerance, 1, cfg.min_samples))
        ks.global_steady = true;
    }
  }
}

}  // namespace

IntMsg::IntMsg(int tilde_cap, int eager_cap)
    : tilde_cap_(tilde_cap), eager_cap_(eager_cap),
      buf_(wire_bytes(tilde_cap, eager_cap)) {
  header() = WireHeader{};
}

int IntMsg::wire_bytes(int tilde_cap, int eager_cap) {
  return static_cast<int>(sizeof(WireHeader) + tilde_cap * sizeof(WireTilde) +
                          eager_cap * sizeof(WireEager));
}

int IntMsg::payload() const {
  return static_cast<int>(sizeof(WireHeader) +
                          header().n_tilde * sizeof(WireTilde));
}

WireHeader& IntMsg::header() { return *reinterpret_cast<WireHeader*>(buf_.data()); }
const WireHeader& IntMsg::header() const {
  return *reinterpret_cast<const WireHeader*>(buf_.data());
}
WireTilde* IntMsg::tilde() {
  return reinterpret_cast<WireTilde*>(buf_.data() + sizeof(WireHeader));
}
const WireTilde* IntMsg::tilde() const {
  return reinterpret_cast<const WireTilde*>(buf_.data() + sizeof(WireHeader));
}

void IntMsg::pack(const RankProfiler& rp, bool want_execute) {
  WireHeader& h = header();
  std::memcpy(h.metrics, rp.path.as_array(), sizeof h.metrics);
  h.execute = want_execute ? 1 : 0;
  h.n_eager = 0;
  WireTilde* t = tilde();
  std::int64_t n = 0;
  if (rp.keep_tilde)
    for_each_carried(rp.tilde, tilde_cap_, [&](std::uint64_t key, std::int64_t freq) {
      t[n++] = WireTilde{key, freq};
    });
  h.n_tilde = n;
}

void IntMsg::unpack_into(RankProfiler& rp) const {
  const WireHeader& h = header();
  // Adopt the per-metric maxima.  If the sender's execution-time path is
  // longer than ours, its ~K table replaces ours (paper Fig. 2 lines
  // 64-65); on ties keep ours.  A run that keeps no ~K adopts none.
  const bool adopt_tilde = rp.keep_tilde && h.metrics[0] > rp.path.exec_time;
  PathMetrics sent;
  std::memcpy(sent.as_array(), h.metrics, sizeof h.metrics);
  rp.path.max_with(sent);
  if (adopt_tilde) {
    rp.tilde.clear();
    const WireTilde* t = tilde();
    for (std::int64_t i = 0; i < h.n_tilde; ++i) rp.tilde[t[i].key] = t[i].freq;
  }
}

void Agreement::start(const Vote& first) {
  metrics = first.rp->path;
  execute = first.want;
  tilde_src = first.rp;
  tilde_cap = first.cfg->tilde_capacity;
  eager_cap = first.cfg->eager_capacity;
  eager.clear();
  for_each_eager_entry(*first.rp, *first.cfg, first.chan,
                       [&](const WireEager& e) { eager.push_back(e); });
}

void Agreement::fold(const Vote& in) {
  // The running maximum before this member decides whose ~K is carried.
  if (in.rp->path.exec_time > metrics.exec_time) tilde_src = in.rp;
  metrics.max_with(in.rp->path);
  execute = execute || in.want;
  for_each_eager_entry(*in.rp, *in.cfg, in.chan,
                       [&](const WireEager& e) { merge_eager(e); });
}

void Agreement::merge_eager(const WireEager& e) {
  for (WireEager& mine : eager) {
    if (mine.key != e.key) continue;
    if (mine.agg == e.agg) {
      // Chan parallel merge of (n, mean, m2)
      KernelStats a, b;
      a.n = mine.n; a.mean = mine.mean; a.m2 = mine.m2;
      b.n = e.n; b.mean = e.mean; b.m2 = e.m2;
      a.merge(b);
      mine.n = a.n; mine.mean = a.mean; mine.m2 = a.m2;
    } else if (e.n > mine.n) {
      mine = e;  // different base: keep the better-sampled view
    }
    return;
  }
  if (static_cast<int>(eager.size()) < eager_cap) eager.push_back(e);
}

void Agreement::apply(const Vote& member) const {
  RankProfiler& rp = *member.rp;
  // On ties this member holds the longest path itself, so it keeps its ~K.
  // A run that keeps no ~K adopts none.
  const bool adopt_tilde =
      rp.keep_tilde && metrics.exec_time > rp.path.exec_time;
  rp.path.max_with(metrics);
  if (adopt_tilde) {
    if (static_cast<int>(tilde_src->tilde.size()) <= tilde_cap) {
      // Carried whole: take the table by copy, not entry by entry.  No
      // reader depends on a ~K table's iteration order.
      rp.tilde = tilde_src->tilde;
    } else {
      rp.tilde.clear();
      for_each_carried(tilde_src->tilde, tilde_cap,
                       [&](std::uint64_t key, std::int64_t freq) { rp.tilde[key] = freq; });
    }
  }
  merge_eager_into(rp, *member.cfg, member.chan, eager);
}

bool agree(void* const* votes, int n) {
  // One accumulator per thread keeps the eager entries' capacity.
  thread_local Agreement acc;
  const auto vote = [votes](int i) -> const Vote& {
    return *static_cast<const Vote*>(votes[i]);
  };
  acc.start(vote(0));
  for (int i = 1; i < n; ++i) acc.fold(vote(i));
  for (int i = 0; i < n; ++i) acc.apply(vote(i));
  return acc.execute;
}

}  // namespace critter::core
