// Autotune any registered workload (default: Capital's 3D Cholesky block
// size and base-case strategy, the paper's first case study) with a policy
// and search strategy of your choice:
//
//   ./autotune_cholesky [--workload=capital-cholesky]
//                       [--strategy=ci-discard,margin=0.1]
//                       [--policy=online] [--tolerance=0.125] [--samples=2]
//                       [--workers=4] [--batch=4] [--reset=0|1]
//                       [--prior=FILE] [--save-stats=FILE]
//                       [--shards=2 --exchange-every=4 ...]
//                       [--serve=DIR | --connect=HOST:PORT --session=S]
//
// --help lists every flag and the registered workloads and strategies.
// Prints the per-configuration predictions, the exhaustive-search cost with
// and without selective execution, the selected configuration, and the
// effective sweep mode (serial / parallel-isolated / parallel-batch-shared
// — never a silent fallback).  The flags, the four deployments (local,
// shards, daemon, client) and the shared report live in the front end
// (app/front_end.hpp); this program adds its defaults, its table column
// and its summary line.
//
// --save-stats=FILE persists the sweep's final statistics snapshot;
// --prior=FILE feeds one to the model-based strategies — so the transfer
// workflow (tune a small problem, save its snapshot, use it as the prior
// for a large problem) runs end-to-end from the CLI:
//
//   ./autotune_cholesky --save-stats=small.snap
//   CRITTER_PAPER_SCALE=1 ./autotune_cholesky \
//       --strategy=copula-transfer --prior=small.snap
#include <cstdio>
#include <string>

#include "app/front_end.hpp"

namespace app = critter::app;
namespace tune = critter::tune;

int main(int argc, char** argv) {
  const app::Program program{
      .name = "autotune_cholesky",
      .column = "skipped",
      .cell = [](const tune::ConfigOutcome& c) {
        return std::to_string(c.skipped);
      },
      .summary = [](const tune::TuneResult& r) {
        std::printf("\nsearch: %.4fs with selective execution vs %.4fs "
                    "full (%.2fx speedup); %d/%zu configurations evaluated\n",
                    r.tuning_time, r.full_time, r.full_time / r.tuning_time,
                    r.evaluated_configs, r.per_config.size());
      }};
  return app::run_program(argc, argv, program);
}
