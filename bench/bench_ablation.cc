// Ablations of the design choices DESIGN.md calls out:
//   1. sqrt(k) confidence-interval shrinkage on/off (online vs conditional)
//      as a function of tolerance;
//   2. internal-message capacity (profiling overhead) vs tuning time;
//   3. prediction error vs simulator noise level at fixed tolerance —
//      an experiment the paper could not run on real hardware.
#include "bench_common.hpp"

int main() {
  const bool paper = critter::util::paper_scale();
  auto study = bench::tune::capital_cholesky_study(paper);

  {
    bench::util::Table t("Ablation 1: sqrt(k) CI shrinkage (conditional vs online), Capital");
    t.header({"log2(eps)", "cond-tuning(s)", "online-tuning(s)",
              "cond-skipped", "online-skipped"});
    for (double tol : bench::tolerance_sweep()) {
      bench::tune::TuneOptions c, o;
      c.policy = critter::Policy::ConditionalExecution;
      o.policy = critter::Policy::OnlinePropagation;
      c.tolerance = o.tolerance = tol;
      c.samples = o.samples = bench::sample_count();
      auto rc = bench::tune::run_study(study, c);
      auto ro = bench::tune::run_study(study, o);
      std::int64_t cs = 0, os = 0;
      for (auto& x : rc.per_config) cs += x.skipped;
      for (auto& x : ro.per_config) os += x.skipped;
      t.row({bench::util::Table::num(std::log2(tol), 1),
             bench::util::Table::num(rc.tuning_time, 4),
             bench::util::Table::num(ro.tuning_time, 4),
             std::to_string(cs), std::to_string(os)});
    }
    t.print();
  }

  {
    bench::util::Table t("Ablation 2: internal-message capacity vs overhead, Capital");
    t.header({"tilde-capacity", "tuning-time(s)", "mean-err(%)"});
    for (int cap : {32, 128, 256, 1024}) {
      bench::tune::TuneOptions opt;
      opt.policy = critter::Policy::OnlinePropagation;
      opt.tolerance = 0.125;
      opt.samples = bench::sample_count();
      opt.tilde_capacity = cap;
      auto r = bench::tune::run_study(study, opt);
      t.row({std::to_string(cap), bench::util::Table::num(r.tuning_time, 4),
             bench::util::Table::num(100.0 * r.mean_err(), 2)});
    }
    t.print();
  }

  {
    bench::util::Table t("Ablation 3: prediction error vs machine noise, Capital, eps=2^-4");
    t.header({"noise-sigma", "mean-err(%)", "tuning-time(s)"});
    for (double sigma : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
      bench::tune::TuneOptions opt;
      opt.policy = critter::Policy::OnlinePropagation;
      opt.tolerance = 1.0 / 16.0;
      opt.samples = bench::sample_count();
      opt.comp_noise = sigma;
      opt.comm_noise = sigma;
      auto r = bench::tune::run_study(study, opt);
      t.row({bench::util::Table::num(sigma, 2),
             bench::util::Table::num(100.0 * r.mean_err(), 2),
             bench::util::Table::num(r.tuning_time, 4)});
    }
    t.print();
  }
  return 0;
}
