// Registering and tuning a custom workload end-to-end (paper §IV-A / §V-D:
// Capital's block-to-cyclic redistribution kernels are intercepted as user
// kernels this way):
//
//   ./custom_kernels [--ranks=8] [--iters=24] [--samples=2]
//
// A library developer wraps arbitrary code regions in
// critter::user_kernel(name, dims, flops, work), describes the tunable
// parameters as a ParamSpace, and registers the pair as a Workload — all
// from user code, without touching src/tune/.  The tuner then samples the
// kernels, builds their confidence intervals, and selectively skips them
// like any BLAS or MPI kernel.  This example tunes the block size of a
// redistribution pipeline through the ask/tell Tuner session and shows the
// session state round-tripping through export_state().
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/mpi.hpp"
#include "sim/api.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace sim = critter::sim;
namespace tune = critter::tune;

namespace {

constexpr std::uint64_t kRedistribute = 0xB10C2C;
constexpr std::uint64_t kTraverse = 0x7247;

/// A block-to-cyclic style redistribution followed by an irregular
/// traversal, both intercepted as user kernels.  The tunable "b" trades
/// per-block launch overhead (small blocks: many kernels) against load
/// imbalance modeled as superlinear per-block cost (large blocks).
class RedistributeWorkload final : public tune::Workload {
 public:
  explicit RedistributeWorkload(int ranks, int iters)
      : ranks_(ranks), iters_(iters) {}

  std::string name() const override { return "block-redistribute"; }
  std::string description() const override {
    return "user-kernel redistribution pipeline: block size";
  }

  void run(const tune::Study& study,
           const tune::Configuration& cfg) const override {
    const std::int64_t b = cfg.at("b");
    const std::int64_t blocks = study.n / b;
    for (int it = 0; it < iters_; ++it) {
      for (std::int64_t k = 0; k < blocks; ++k)
        critter::user_kernel(kRedistribute, b, b,
                             /*flops=*/1.1 * static_cast<double>(b) * b, nullptr);
      critter::user_kernel(kTraverse, study.n, 1,
                           /*flops=*/3.0 * static_cast<double>(study.n), nullptr);
      critter::mpi::barrier(sim::world());
    }
  }

 protected:
  tune::Study define(bool /*paper_scale*/) const override {
    tune::Study s;
    s.name = "user-kernel redistribution";
    s.nranks = ranks_;
    s.n = 4096;
    s.m = s.n;
    s.gamma = 4.0e-8;
    s.space = tune::ParamSpace::cartesian(
        {{"b", {64, 128, 256, 512, 1024, 2048}}});
    return s;
  }

 private:
  int ranks_;
  int iters_;
};

}  // namespace

int main(int argc, char** argv) {
  critter::util::Options opt(argc, argv);
  const int ranks = static_cast<int>(opt.get_int("ranks", 8));
  const int iters = static_cast<int>(opt.get_int("iters", 24));

  // Registration is plain user code; the workload is now addressable by
  // name next to the paper's case studies (try --help on the autotune
  // examples to see it listed).
  tune::register_workload(
      std::make_unique<RedistributeWorkload>(ranks, iters));
  const tune::Study study = tune::workload_study("block-redistribute", false);

  tune::TuneOptions topt;
  topt.policy = critter::Policy::LocalPropagation;
  topt.tolerance = 0.25;
  topt.samples = static_cast<int>(opt.get_int("samples", 2));

  // The incremental ask/tell session behind run_study, driven explicitly:
  // ask() claims a batch, evaluate() runs it inside the simulator, tell()
  // feeds the outcomes back to the search strategy.
  tune::Tuner session(study, topt);
  critter::util::Table t("ask/tell tuning of " + study.name);
  t.header({"config", "params", "true(s)", "predicted(s)", "err(%)",
            "skipped"});
  while (!session.done()) {
    const std::vector<int> batch = session.ask();
    if (batch.empty()) break;
    const std::vector<tune::ConfigOutcome> outcomes = session.evaluate(batch);
    session.tell(outcomes);
    for (const tune::ConfigOutcome& oc : outcomes)
      t.row({std::to_string(oc.config.index), oc.config.label(),
             critter::util::Table::num(oc.true_time, 5),
             critter::util::Table::num(oc.pred_time, 5),
             critter::util::Table::num(100.0 * oc.err, 2),
             std::to_string(oc.skipped)});
  }
  t.print();

  const tune::TuneResult r = session.result();
  std::printf("\nselected b=%lld (config %d); search %.4fs selective vs "
              "%.4fs full (%.2fx)\n",
              static_cast<long long>(
                  r.per_config[r.best_predicted()].config.at("b")),
              r.best_predicted(), r.tuning_time, r.full_time,
              r.full_time / std::max(r.tuning_time, 1e-300));

  // The session's statistics are a first-class value: serialize them and a
  // later process can warm-start from exactly this state.
  const std::string bytes = session.export_state().to_string();
  std::printf("exported session statistics: %zu bytes (binary snapshot)\n",
              bytes.size());
  return 0;
}
