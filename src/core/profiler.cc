#include "core/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::ConditionalExecution: return "conditional";
    case Policy::EagerPropagation: return "eager";
    case Policy::LocalPropagation: return "local";
    case Policy::OnlinePropagation: return "online";
    case Policy::AprioriPropagation: return "apriori";
  }
  return "?";
}

bool keeps_tilde(const Config& cfg) {
  return cfg.policy == Policy::OnlinePropagation ||
         (cfg.policy == Policy::AprioriPropagation && !cfg.selective);
}

Policy parse_policy(const std::string& name) {
  for (const Policy p :
       {Policy::ConditionalExecution, Policy::EagerPropagation,
        Policy::LocalPropagation, Policy::OnlinePropagation,
        Policy::AprioriPropagation})
    if (name == policy_name(p)) return p;
  CRITTER_CHECK(false, "unknown policy '" + name +
                           "' (known: conditional, eager, local, online, "
                           "apriori)");
  return Policy::ConditionalExecution;
}

void PathMetrics::max_with(const PathMetrics& o) {
  double* a = as_array();
  const double* b = o.as_array();
  for (int i = 0; i < kFields; ++i) a[i] = std::max(a[i], b[i]);
}

Store::Store(int nranks, Config cfg) : ranks_(nranks) {
  CRITTER_CHECK(nranks >= 1, "store needs at least one rank");
  configure(cfg);
  for (auto& rp : ranks_) {
    rp.table.init_world(nranks);
    rp.pair_chan.assign(nranks, 0);
  }
}

void Store::configure(Config cfg) {
  cfg_ = cfg;
  // Only the eager policy ships aggregation entries; dropping the section
  // otherwise shrinks every internal message (less profiling overhead).
  if (cfg_.policy != Policy::EagerPropagation) cfg_.eager_capacity = 0;
}

void Store::new_epoch() {
  for (auto& rp : ranks_) rp.table.new_epoch();
}

void Store::reset_statistics() {
  for (auto& rp : ranks_) {
    rp.table.clear_statistics();
    rp.apriori.clear();
    rp.forget_kernel_handles();  // they indexed the cleared K
  }
}

core::StatSnapshot Store::snapshot() const {
  core::StatSnapshot snap;
  snap.ranks.reserve(ranks_.size());
  for (const auto& rp : ranks_) snap.ranks.push_back(rp.table);
  return snap;
}

void Store::restore(const core::StatSnapshot& snap) {
  CRITTER_CHECK(snap.nranks() == nranks(),
                "stat snapshot rank count does not match store");
  for (int r = 0; r < nranks(); ++r) {
    ranks_[r].table = snap.ranks[r];
    ranks_[r].forget_kernel_handles();  // they indexed the replaced K
  }
}

core::StatSnapshot Store::diff(const core::StatSnapshot& base) const {
  CRITTER_CHECK(base.nranks() == nranks(),
                "stat snapshot rank count does not match store");
  core::StatSnapshot delta;
  delta.ranks.reserve(ranks_.size());
  for (int r = 0; r < nranks(); ++r)
    delta.ranks.push_back(ranks_[r].table.diff(base.ranks[r]));
  return delta;
}

void Store::set_apriori_from_last_run() {
  // Pick the rank whose last run carried the longest modeled path; its ~K
  // holds the critical path's kernel execution counts.
  int best = 0;
  for (int r = 1; r < nranks(); ++r)
    if (ranks_[r].last_exec_time > ranks_[best].last_exec_time) best = r;
  const auto counts = ranks_[best].last_tilde;
  for (auto& rp : ranks_) rp.apriori = counts;
}

namespace {
RankProfiler* current_profiler() {
  if (!sim::Engine::in_rank()) return nullptr;
  return static_cast<RankProfiler*>(sim::Engine::ctx().user_data);
}
// One active store per OS thread: each tuner worker drives its own engine +
// store pair, so the slot must be thread-local rather than process-global.
thread_local Store* g_store = nullptr;
}  // namespace

void start(Store& s) {
  sim::RankCtx& ctx = sim::Engine::ctx();
  CRITTER_CHECK(ctx.user_data == nullptr, "critter::start called twice");
  CRITTER_CHECK(ctx.engine->nranks() == s.nranks(),
                "store rank count does not match engine");
  RankProfiler& rp = s.rank(ctx.rank);
  rp.path = PathMetrics{};
  rp.keep_tilde = keeps_tilde(s.config());
  rp.tilde.clear();
  rp.local = LocalCounters{};
  rp.chan_of_comm.assign(1, rp.table.channels.world_hash());  // comm 0: world
  rp.start_clock = ctx.clock;
  rp.active = true;
  ctx.user_data = &rp;
  g_store = &s;
}

RankProfiler& prof() {
  RankProfiler* rp = current_profiler();
  CRITTER_CHECK(rp != nullptr, "critter profiler not started on this rank");
  return *rp;
}

Store& store() {
  CRITTER_CHECK(g_store != nullptr, "no active critter store");
  return *g_store;
}

const Config& config() { return store().config(); }

namespace detail {

std::uint64_t channel_of(sim::Comm c) {
  RankProfiler& rp = prof();
  if (c.id >= static_cast<int>(rp.chan_of_comm.size()))
    rp.chan_of_comm.resize(c.id + 1, 0);
  std::uint64_t& h = rp.chan_of_comm[c.id];
  if (h != 0) return h;
  // A split orders its members by (key, world rank); sorted, every
  // communicator over one rank set names one list.
  thread_local std::vector<int> sorted;
  const std::vector<int>& members = sim::Engine::ctx().engine->comm_members(c);
  sorted.assign(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  const auto [it, inserted] = rp.chan_of_members.try_emplace(
      util::checksum64(sorted.data(), sorted.size() * sizeof(int)));
  RankProfiler::MemberChannel& mc = it->second;
  if (inserted) {
    mc.members = sorted;
    mc.hash = rp.table.channels.add_channel(sorted);
  } else {
    CRITTER_CHECK(mc.members == sorted, "communicator member-list hash collision");
    // add_channel on a known channel changes nothing; a registry that
    // restore() installed may lack it, and then it registers.
    if (!rp.table.channels.known(mc.hash)) rp.table.channels.add_channel(sorted);
  }
  h = mc.hash;
  return h;
}

std::int64_t k_effective(const RankProfiler& rp, const Config& cfg,
                         const core::KernelKey& key,
                         const core::KernelStats& ks) {
  switch (cfg.policy) {
    case Policy::ConditionalExecution:
    case Policy::EagerPropagation:
      return 1;
    case Policy::LocalPropagation:
      return std::max<std::int64_t>(1, ks.invocations_this_epoch);
    case Policy::OnlinePropagation: {
      const std::int64_t* f = rp.tilde.find(key.hash());
      return f == nullptr ? 1 : std::max<std::int64_t>(1, *f);
    }
    case Policy::AprioriPropagation: {
      const std::int64_t* f = rp.apriori.find(key.hash());
      return f == nullptr ? 1 : std::max<std::int64_t>(1, *f);
    }
  }
  return 1;
}

bool wants_execution(const RankProfiler& rp, const Config& cfg,
                     const core::KernelKey& key,
                     const core::KernelStats& ks) {
  if (!cfg.selective) return true;
  if (cfg.policy == Policy::EagerPropagation &&
      !(key.cls == core::KernelClass::Send ||
        key.cls == core::KernelClass::Recv ||
        key.cls == core::KernelClass::Isend)) {
    // Globally consistent decision: skip only once the statistics have
    // been propagated across the whole grid.  Point-to-point kernels are
    // exempt: their size-2 channels cannot tile the grid, so they fall
    // back to the local rule below (the paper's eager policy targets
    // bulk-synchronous collectives).
    return !ks.global_steady;
  }
  // Every kernel executes at least once per tuning epoch.
  if (ks.executions_this_epoch == 0) return true;
  const double z = core::normal_quantile_cached(cfg.confidence);
  return !ks.is_steady(z, cfg.tolerance, k_effective(rp, cfg, key, ks),
                       cfg.min_samples);
}

void note_invocation(RankProfiler& rp, const core::KernelKey& key,
                     core::KernelStats& ks) {
  ++ks.invocations_this_epoch;
  ++ks.total_invocations;
  if (rp.keep_tilde) ++rp.tilde[key.hash()];
  if (!ks.registered) {
    // first sighting: register the hash and absorb any eager statistics
    // that arrived early
    ks.registered = true;
    rp.table.key_of_hash.emplace(key.hash(), key);
    auto pend = rp.table.pending_eager.find(key.hash());
    if (pend != rp.table.pending_eager.end()) {
      ks.merge(pend->second);
      ks.agg_hash = pend->second.agg_hash;
      rp.table.pending_eager.erase(pend);
    }
  }
}

}  // namespace detail

}  // namespace critter
