// Bit-identity digest of one tuning study's outcome: every per-configuration
// outcome and totals contribution, each double printed with "%a" (exact hex
// float), so two digests compare equal iff the underlying values are
// bit-identical.
//
// The benchmark's correctness gate compares every timed study against its
// in-process reference through this digest.  It lives beside the benchmark
// rather than in tests/ so that a change to the test suite cannot change
// what the gate accepts.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <string>

#include "tune/tuner.hpp"

namespace bench_e2e {

inline std::string digest_result(const critter::tune::TuneResult& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf, "configs=%zu best_pred=%d best_true=%d\n",
                r.per_config.size(), r.best_predicted(), r.best_true());
  out += buf;
  for (std::size_t i = 0; i < r.per_config.size(); ++i) {
    const critter::tune::ConfigOutcome& oc = r.per_config[i];
    std::snprintf(buf, sizeof buf,
                  "c %zu idx=%d ev=%d pr=%d tt=%a pt=%a err=%a tct=%a pct=%a "
                  "cerr=%a sw=%a skt=%a exe=%" PRId64 " skip=%" PRId64
                  " su=%d\n",
                  i, oc.config.index, oc.evaluated ? 1 : 0, oc.pruned ? 1 : 0,
                  oc.true_time, oc.pred_time, oc.err, oc.true_comp_time,
                  oc.pred_comp_time, oc.comp_err, oc.sel_wall,
                  oc.sel_kernel_time, oc.executed, oc.skipped,
                  oc.samples_used);
    out += buf;
  }
  for (std::size_t i = 0; i < r.per_config_totals.size(); ++i) {
    const critter::tune::ConfigTotals& ct = r.per_config_totals[i];
    std::snprintf(buf, sizeof buf, "t %zu tt=%a ft=%a kt=%a fkt=%a\n", i,
                  ct.tuning_time, ct.full_time, ct.kernel_time,
                  ct.full_kernel_time);
    out += buf;
  }
  return out;
}

}  // namespace bench_e2e
