#include "dist/executor.hpp"

#include <algorithm>
#include <deque>

#include "dist/shard_session.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace critter::dist {

std::vector<ShardRange> partition_range(int begin, int end, int nshards) {
  CRITTER_CHECK(nshards >= 1, "sharded run needs at least one shard");
  CRITTER_CHECK(begin <= end, "sharded run range is inverted");
  std::vector<ShardRange> out;
  const int range_n = end - begin;
  for (int s = 0; s < nshards; ++s) {
    // Contiguous balanced partition; noise salts stay indexed by absolute
    // configuration index, so each shard reproduces exactly the samples
    // the unsharded sweep would draw for its range.
    const int lo = begin + static_cast<int>(
                               static_cast<std::int64_t>(range_n) * s / nshards);
    const int hi = begin + static_cast<int>(static_cast<std::int64_t>(range_n) *
                                            (s + 1) / nshards);
    if (lo >= hi) continue;
    out.push_back({static_cast<int>(out.size()), lo, hi});
  }
  return out;
}

// ---------------------------------------------------------------------------
// InProcessExecutor
// ---------------------------------------------------------------------------

std::vector<ShardResult> InProcessExecutor::run(
    const tune::Study& study, const tune::TuneOptions& opt,
    const std::vector<ShardRange>& shards, const ExchangePolicy& exchange) {
  std::vector<ShardResult> results(shards.size());

  // Lockstep exchange rounds, the in-memory realization of the run-dir
  // protocol: each live shard steps until its round is due, then — with
  // every delta taken before any absorption, exactly what concurrent
  // worker processes see, since a worker publishes before it reads its
  // peers — each shard that reads peers absorbs theirs in ascending shard
  // order.  The sessions own every rule; this loop is only the barrier.
  // With exchange off no round is ever due, so every shard sweeps its
  // range in one segment, one shard after the other.
  const int n = static_cast<int>(shards.size());
  std::deque<ShardSession> sessions;  // non-movable: a deque never relocates
  for (const ShardRange& sr : shards)
    sessions.emplace_back(study, opt, sr, n, exchange.every);

  // Sequential shards: a one-worker pool is the caller, in index order.
  util::ThreadPool pool(parallel_shards_ ? util::ThreadPool::threads_for(n)
                                        : 1);
  const auto segment = [&](int s) {
    ShardSession& ss = sessions[s];
    while (!ss.round_due() && ss.step()) {
    }
  };
  while (true) {
    bool any_live = false;
    for (int s = 0; s < n; ++s) any_live = any_live || !sessions[s].done();
    if (!any_live) break;
    pool.parallel_for(n, segment);

    // A peer without a due round has no delta: an empty one, never folded.
    std::vector<core::StatSnapshot> deltas(n);
    for (int s = 0; s < n; ++s)
      if (sessions[s].round_due()) deltas[s] = sessions[s].take_delta();
    for (int s = 0; s < n; ++s) {
      ShardSession& ss = sessions[s];
      if (!ss.round_due()) continue;
      for (int p = 0; ss.reads_peers() && p < n; ++p)
        if (p != s) ss.absorb(deltas[p]);
      ss.end_round();
    }
  }

  for (int s = 0; s < n; ++s) results[s] = sessions[s].result();
  return results;
}

// ---------------------------------------------------------------------------
// run_sharded: the executor-agnostic fold
// ---------------------------------------------------------------------------

tune::TuneResult run_sharded(const tune::Study& study,
                             const tune::TuneOptions& opt, int nshards,
                             ShardExecutor& exec,
                             const ExchangePolicy& exchange) {
  CRITTER_CHECK(nshards >= 1, "run_sharded needs at least one shard");
  const int nconf = static_cast<int>(study.configs.size());
  const int begin = std::clamp(opt.config_begin, 0, nconf);
  const int end =
      opt.config_end < 0 ? nconf : std::clamp(opt.config_end, begin, nconf);
  const std::vector<ShardRange> shards = partition_range(begin, end, nshards);

  tune::TuneResult out;
  out.per_config.resize(nconf);
  for (int i = 0; i < nconf; ++i) out.per_config[i].config = study.configs[i];
  out.per_config_totals.resize(nconf);
  out.shards = nshards;
  out.requested_workers = std::max(1, opt.workers);
  out.executor = exec.name();
  out.exchange_every = shards.size() > 1 ? std::max(exchange.every, 0) : 0;
  out.exchange_strict = exchange.strict;

  const std::vector<ShardResult> results =
      shards.empty() ? std::vector<ShardResult>{}
                     : exec.run(study, opt, shards, exchange);
  CRITTER_CHECK(results.size() == shards.size(),
                "executor returned a result per shard");

  bool first_shard = true;
  for (const ShardResult& r : results) {
    const ShardRange& sr = r.range;
    CRITTER_CHECK(r.outcomes.size() ==
                          static_cast<std::size_t>(sr.end - sr.begin) &&
                      r.totals.size() == r.outcomes.size(),
                  "shard result does not cover its range");
    for (int i = sr.begin; i < sr.end; ++i) {
      out.per_config[i] = r.outcomes[i - sr.begin];
      out.per_config_totals[i] = r.totals[i - sr.begin];
    }
    out.evaluated_configs += r.evaluated;
    out.exchange_rounds += r.exchange_rounds;
    out.exchange_bytes += r.exchange_bytes;
    out.exchange_skips += r.recovery.exchange_skips;
    // Phase times sum across shards: total CPU seconds per phase, the
    // attribution the examples print (not elapsed wall time).
    out.phases.ask += r.phases.ask;
    out.phases.evaluate += r.phases.evaluate;
    out.phases.tell += r.phases.tell;
    out.phases.exchange += r.phases.exchange;
    out.phases.checkpoint += r.phases.checkpoint;
    out.shard_recovery.push_back(r.recovery);
    out.shard_recovery.back().shard = sr.index;
    if (first_shard) {
      out.mode = r.mode;
      out.strategy = r.strategy;
      out.effective_workers = r.effective_workers;
      out.batch = r.batch;
      out.fallback_reason = r.fallback_reason;
      out.stats = r.stats;
      first_shard = false;
    } else if (!r.stats.empty()) {
      // Deterministic fold in shard order (see core/stat_store.hpp's merge
      // contract): every shard's statistics are counted exactly once.
      if (out.stats.empty())
        out.stats = r.stats;
      else
        out.stats.merge(r.stats);
    }
  }
  // Reduce the aggregates in configuration order over the whole range, the
  // association an unsharded sweep uses — so an isolated sharded sweep's
  // aggregates are bit-identical to it, not merely equal to rounding.
  for (const tune::ConfigTotals& t : out.per_config_totals) {
    out.tuning_time += t.tuning_time;
    out.full_time += t.full_time;
    out.kernel_time += t.kernel_time;
    out.full_kernel_time += t.full_kernel_time;
  }
  return out;
}

}  // namespace critter::dist
