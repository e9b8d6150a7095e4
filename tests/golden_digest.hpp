// Textual bit-identity digest of sweep results and statistics content,
// shared by the golden-output tests and the fixture generator.  The digest
// prints every floating value with "%a" (exact hex float), so two digests
// compare equal iff the underlying doubles are bit-identical.
//
// The digest deliberately covers *statistics content* (per-kernel moments,
// counters, flags, pending entries, tombstones, epochs) and sweep outcomes,
// but NOT the channel registry: the registry is an acceleration structure
// whose population may legally shrink (e.g. point-to-point pair channels
// need not be registered) without changing any observable statistic.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stat_store.hpp"
#include "tune/tuner.hpp"

namespace critter::testing {

inline void digest_append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

inline void digest_stats(std::string& out, const core::KernelStats& ks) {
  digest_append(out,
                " n=%" PRId64 " mean=%a m2=%a inv=%" PRId64 "/%" PRId64
                " exe=%" PRId64 "/%" PRId64 " agg=%016" PRIx64 " gs=%d eo=%d reg=%d\n",
                ks.n, ks.mean, ks.m2, ks.invocations_this_epoch,
                ks.total_invocations, ks.executions_this_epoch,
                ks.total_executions, ks.agg_hash, ks.global_steady ? 1 : 0,
                ks.extrapolation_observed ? 1 : 0, ks.registered ? 1 : 0);
}

/// Statistics content of a snapshot, rank by rank, kernels sorted by hash.
inline std::string digest_snapshot(const core::StatSnapshot& snap) {
  std::string out;
  digest_append(out, "snapshot nranks=%d\n", snap.nranks());
  for (std::size_t r = 0; r < snap.ranks.size(); ++r) {
    const core::KernelTable& t = snap.ranks[r];
    digest_append(out, "rank %zu epoch=%" PRId64 " kernels=%zu\n",
                  r, static_cast<std::int64_t>(t.epoch), t.K.size());
    std::vector<std::uint64_t> hashes;
    hashes.reserve(t.K.size());
    for (const auto& [key, ks] : t.K) hashes.push_back(key.hash());
    std::sort(hashes.begin(), hashes.end());
    for (std::uint64_t h : hashes) {
      const auto kit = t.key_of_hash.find(h);
      if (kit == t.key_of_hash.end()) {
        digest_append(out, "k %016" PRIx64 " (unregistered)\n", h);
        continue;
      }
      const core::KernelKey& key = kit->second;
      digest_append(out, "k %016" PRIx64 " cls=%d dims=%" PRId64 ",%" PRId64
                         ",%" PRId64 ",%" PRId64 " chan=%016" PRIx64,
                    h, static_cast<int>(key.cls), key.dims[0], key.dims[1],
                    key.dims[2], key.dims[3], key.chan);
      digest_stats(out, t.K.at(key));
    }
    std::vector<std::uint64_t> pend;
    for (const auto& [h, ks] : t.pending_eager) pend.push_back(h);
    std::sort(pend.begin(), pend.end());
    for (std::uint64_t h : pend) {
      digest_append(out, "pending %016" PRIx64, h);
      digest_stats(out, t.pending_eager.at(h));
    }
    std::vector<std::uint64_t> tomb(t.pending_tombstones.begin(),
                                    t.pending_tombstones.end());
    std::sort(tomb.begin(), tomb.end());
    for (std::uint64_t h : tomb)
      digest_append(out, "tombstone %016" PRIx64 "\n", h);
  }
  return out;
}

/// Per-configuration outcomes and totals of a sweep.
inline std::string digest_result(const tune::TuneResult& r) {
  std::string out;
  digest_append(out, "result configs=%zu best_pred=%d best_true=%d\n",
                r.per_config.size(), r.best_predicted(), r.best_true());
  for (std::size_t i = 0; i < r.per_config.size(); ++i) {
    const tune::ConfigOutcome& oc = r.per_config[i];
    digest_append(out,
                  "c %zu idx=%d ev=%d pr=%d tt=%a pt=%a err=%a tct=%a pct=%a "
                  "cerr=%a sw=%a skt=%a exe=%" PRId64 " skip=%" PRId64 " su=%d\n",
                  i, oc.config.index, oc.evaluated ? 1 : 0, oc.pruned ? 1 : 0,
                  oc.true_time, oc.pred_time, oc.err, oc.true_comp_time,
                  oc.pred_comp_time, oc.comp_err, oc.sel_wall,
                  oc.sel_kernel_time, oc.executed, oc.skipped,
                  oc.samples_used);
    if (i < r.per_config_totals.size()) {
      const tune::ConfigTotals& ct = r.per_config_totals[i];
      digest_append(out, "t %zu tt=%a ft=%a kt=%a fkt=%a\n", i,
                    ct.tuning_time, ct.full_time, ct.kernel_time,
                    ct.full_kernel_time);
    }
  }
  return out;
}

/// The fixtures under tests/golden/, one file sweep_<name>.digest each.
/// tools/gen_golden writes every one of them and the GoldenSweep tests
/// compare against them; CI regenerates them all and diffs the directory.
inline constexpr const char* kGoldenFixtures[] = {
    "online",          "eager",           "batch",
    "apriori",         "isolated",        "capital_online",
    "capital_apriori", "candmc_online",   "slate_conditional",
    "slate_local"};

/// The deterministic sweeps whose outputs the golden files pin.  Any change
/// to a sweep here regenerates a different fixture.
///
/// The first five are SLATE-Cholesky sweeps at tolerance 0.5.  The last
/// five run at tolerance 2^-3 with persistent statistics and no
/// extrapolation: there the policies' skip decisions differ, so the ~K
/// path counts that online and a-priori propagation read (and the
/// conditional and local policies do not) show in the digests.
inline tune::TuneResult golden_sweep(const char* which) {
  const std::string w = which;
  const auto tight = [](tune::Study study, Policy policy) {
    study.configs.resize(4);
    tune::TuneOptions opt;
    opt.samples = 2;
    opt.tolerance = 0.125;
    opt.policy = policy;
    return tune::run_study(study, opt);
  };
  if (w == "capital_online")
    return tight(tune::capital_cholesky_study(false), Policy::OnlinePropagation);
  if (w == "capital_apriori")
    return tight(tune::capital_cholesky_study(false), Policy::AprioriPropagation);
  if (w == "candmc_online")
    return tight(tune::candmc_qr_study(false), Policy::OnlinePropagation);
  if (w == "slate_conditional")
    return tight(tune::slate_cholesky_study(false),
                 Policy::ConditionalExecution);
  if (w == "slate_local")
    return tight(tune::slate_cholesky_study(false), Policy::LocalPropagation);

  auto study = tune::slate_cholesky_study(false);
  study.configs.resize(4);
  tune::TuneOptions opt;
  opt.samples = 2;
  opt.tolerance = 0.5;
  opt.extrapolate = true;
  opt.reset_per_config = false;
  if (w == "online") {
    opt.policy = Policy::OnlinePropagation;
  } else if (w == "eager") {
    opt.policy = Policy::EagerPropagation;
  } else if (w == "batch") {
    opt.policy = Policy::OnlinePropagation;
    opt.batch = 2;
    opt.workers = 2;
  } else if (w == "apriori") {
    // Pins the reference salt's offset past the offline pass and the order
    // in which the offline pass's wall time enters the tuning time.
    opt.policy = Policy::AprioriPropagation;
    opt.batch = 2;
    opt.workers = 2;
  } else if (w == "isolated") {
    // Reset statistics and no extrapolation: the ParallelIsolated plan.
    opt.policy = Policy::OnlinePropagation;
    opt.reset_per_config = true;
    opt.extrapolate = false;
    opt.workers = 2;
  }
  return tune::run_study(study, opt);
}

inline std::string golden_digest(const char* which) {
  const tune::TuneResult r = golden_sweep(which);
  return digest_result(r) + digest_snapshot(r.stats);
}

}  // namespace critter::testing
