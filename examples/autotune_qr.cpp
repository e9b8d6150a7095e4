// Autotune CANDMC's pipelined 2D QR over block size and processor-grid
// shape (the paper's third case study), or any other registered workload:
//
//   ./autotune_qr [--workload=candmc-qr] [--strategy=halving,eta=2]
//                 [--policy=local] [--tolerance=0.25] [--samples=1]
//                 [--workers=4] [--batch=4] [--reset=0|1]
//                 [--prior=FILE] [--save-stats=FILE]
//                 [--shards=2 --exchange-every=4 ...]
//                 [--serve=DIR | --connect=HOST:PORT --session=S]
//
// --help lists every flag and the registered workloads and strategies.
// Demonstrates the paper's observation that CANDMC's shrinking trailing
// matrix creates many distinct kernel signatures, limiting the end-to-end
// speedup while kernel execution time itself drops sharply.  The flags, the
// deployments and the shared report live in the front end
// (app/front_end.hpp); this program adds its defaults, its table column
// and its summary line.
//
// --prior=FILE / --save-stats=FILE run the transfer-tuning workflow (tune
// small, save the snapshot, prior a bigger sweep — see autotune_cholesky).
// The paper's QR protocol resets statistics per configuration, so its
// snapshot keeps no kernel runtime moments to transfer (copula-transfer
// would degrade to random-subset); pass --reset=0 to sweep with persistent
// statistics when producing a prior.
#include <algorithm>
#include <cstdio>

#include "app/front_end.hpp"
#include "util/table.hpp"

namespace app = critter::app;
namespace tune = critter::tune;

int main(int argc, char** argv) {
  const app::Program program{
      .name = "autotune_qr",
      // The paper's CANDMC protocol resets statistics per configuration.
      .defaults = {.workload = "candmc-qr",
                   .policy = "local",
                   .tolerance = 0.25,
                   .samples = 1,
                   .reset = true},
      .column = "sel-kernel-time(s)",
      .cell = [](const tune::ConfigOutcome& c) {
        return critter::util::Table::num(c.sel_kernel_time, 5);
      },
      .summary = [](const tune::TuneResult& r) {
        std::printf("\ntuning %.4fs vs full %.4fs (%.2fx); kernel-time "
                    "reduction %.2fx; best=%d true-best=%d\n",
                    r.tuning_time, r.full_time, r.full_time / r.tuning_time,
                    r.full_kernel_time / std::max(r.kernel_time, 1e-300),
                    r.best_predicted(), r.best_true());
      }};
  return app::run_program(argc, argv, program);
}
