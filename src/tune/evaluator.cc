#include "tune/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace critter::tune {

namespace {

sim::Machine make_machine(const Study& study, double comp_noise,
                          double comm_noise) {
  sim::Machine m = sim::Machine::knl_like();
  m.gamma = study.gamma;
  m.comp_noise = comp_noise;
  m.comm_noise = comm_noise;
  return m;
}

Config reference_config() {
  Config c;
  c.mode = ExecMode::Model;
  c.selective = false;
  return c;
}

}  // namespace

void StorePool::GiveBack::operator()(Store* s) const {
  const std::lock_guard<std::mutex> lock(pool->mu_);
  pool->free_.emplace_back(s);
}

StorePool::Lease StorePool::take(const Config& cfg) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      Lease s(free_.back().release(), GiveBack{this});
      free_.pop_back();
      s->configure(cfg);
      return s;
    }
  }
  return Lease(new Store(nranks_, cfg), GiveBack{this});
}

Evaluator::Evaluator(const Study& study, const TuneOptions& opt)
    : study_(study), opt_(opt),
      machine_(make_machine(study, opt.comp_noise, opt.comm_noise)),
      stores_(study.nranks) {}

std::uint64_t Evaluator::salts_per_config() const {
  return (opt_.policy == Policy::AprioriPropagation ? 1 : 0) + 1 +
         static_cast<std::uint64_t>(opt_.samples);
}

std::uint64_t Evaluator::salt_for(int index) const {
  return util::hash_combine(opt_.seed_salt, 0xA0700) +
         static_cast<std::uint64_t>(index) * salts_per_config();
}

/// Run one configuration under the store's current profiler settings.
Report Evaluator::one_run(Store& store, const Configuration& cfg,
                          std::uint64_t salt) const {
  sim::Engine eng(study_.nranks, machine_, salt);
  Report rep;
  eng.run([&](sim::RankCtx& ctx) {
    critter::start(store);
    run_configuration(study_, cfg);  // dispatches to study.runner
    Report r = critter::stop();
    if (ctx.rank == 0) rep = r;
  });
  return rep;
}

Report Evaluator::full_reference(const Configuration& cfg,
                                 std::uint64_t salt) const {
  // Fully instrumented (so critical-path metrics exist) but against a
  // pooled store, reset so that nothing it ran before reaches this run,
  // and never against the sweep's statistics, so its samples do not leak
  // into the policy's.  Its critical-path exec_time is the application
  // time along the critical path, free of profiling overhead.
  const StorePool::Lease store = stores_.take(reference_config());
  store->reset_statistics();
  return one_run(*store, cfg, salt);
}

ConfigOutcome Evaluator::evaluate(Store& store, int index, ConfigTotals* tot,
                                  const EvalControl& ctl,
                                  Report* ref_cache) const {
  Report local;
  Report& full = ref_cache != nullptr ? *ref_cache : local;
  const EvalChain c = chain(store, index, ctl);
  reference(index, full);
  return finish(index, c, full, tot);
}

EvalChain Evaluator::chain(Store& store, int index,
                           const EvalControl& ctl) const {
  const Configuration& cfg = study_.configs.at(index);
  std::uint64_t salt = salt_for(index);
  EvalChain c;

  if (opt_.policy == Policy::AprioriPropagation) {
    // offline instrumented full pass to record critical-path counts;
    // charged to the tuning time (the paper's a-priori overhead)
    store.new_epoch();
    store.config().selective = false;
    c.offline_wall = one_run(store, cfg, ++salt).wall_time;
    store.set_apriori_from_last_run();
    store.config().selective = true;
  }

  // The reference's salt (see reference()) sits between the a-priori
  // pass and the samples; skipping it keeps the samples' noise fixed
  // whether or not the reference is simulated.
  ++salt;

  // Running moments of the per-sample predicted time for the CI discard.
  core::KernelStats pred;
  const double z = core::normal_quantile_two_sided(Config{}.confidence);

  // A strategy may lower this batch's sample budget (successive halving's
  // early rungs); the options' budget still sizes the salt block, so a
  // later full-budget evaluation replays these samples and extends them.
  const int nsamples = ctl.samples_override > 0
                           ? std::min(ctl.samples_override, opt_.samples)
                           : opt_.samples;
  c.samples.reserve(nsamples);

  for (int s = 0; s < nsamples; ++s) {
    store.new_epoch();
    c.samples.push_back(one_run(store, cfg, ++salt));

    // CI-based early discard: abandon the remaining samples once the
    // predicted-time confidence interval lies entirely above the incumbent
    // (plus slack).  The incumbent is fixed for the whole batch, so the
    // decision is deterministic regardless of worker count.
    pred.add_sample(c.samples.back().critical.exec_time);
    if (ctl.early_discard && s + 1 < nsamples && pred.n >= 2 &&
        std::isfinite(ctl.incumbent_pred)) {
      const double se =
          std::sqrt(pred.variance() / static_cast<double>(pred.n));
      if (pred.mean - z * se > ctl.incumbent_pred * (1.0 + ctl.margin)) {
        c.pruned = true;
        break;
      }
    }
  }
  return c;
}

void Evaluator::reference(int index, Report& slot) const {
  // One full execution per configuration is the error reference.  (The
  // paper pairs every approximated sample with a full execution; we
  // amortize one reference across the samples to keep benches fast and
  // charge the full-execution baseline `samples` times for a fair
  // comparison.)  Its salt follows the a-priori pass's, as if chain() had
  // run it in place.
  if (slot.p > 0) return;
  const std::uint64_t salt =
      salt_for(index) + (opt_.policy == Policy::AprioriPropagation ? 1 : 0) + 1;
  slot = full_reference(study_.configs.at(index), salt);
}

ConfigOutcome Evaluator::finish(int index, const EvalChain& chain,
                                const Report& full, ConfigTotals* tot) const {
  ConfigOutcome oc;
  oc.config = study_.configs.at(index);
  oc.evaluated = true;
  oc.pruned = chain.pruned;

  if (opt_.policy == Policy::AprioriPropagation)
    tot->tuning_time += chain.offline_wall;

  for (const Report& sel : chain.samples) {
    ++oc.samples_used;

    const double true_time = full.critical.exec_time;
    oc.true_time = true_time;
    oc.pred_time += sel.critical.exec_time;
    oc.err += std::abs(sel.critical.exec_time - true_time) /
              std::max(true_time, 1e-300);
    oc.true_comp_time = full.critical.comp_time;
    oc.pred_comp_time += sel.critical.comp_time;
    oc.comp_err +=
        std::abs(sel.critical.comp_time - full.critical.comp_time) /
        std::max(full.critical.comp_time, 1e-300);
    oc.sel_wall += sel.wall_time;
    oc.sel_kernel_time += sel.max_kernel_comp_time;
    oc.executed += sel.executed;
    oc.skipped += sel.skipped;

    tot->tuning_time += sel.wall_time;
    tot->full_time += full.critical.exec_time;  // once per sample
    tot->kernel_time += sel.max_kernel_comp_time;
    tot->full_kernel_time += full.max_modeled_comp_time;
  }
  const double inv = 1.0 / oc.samples_used;
  oc.pred_time *= inv;
  oc.err *= inv;
  oc.pred_comp_time *= inv;
  oc.comp_err *= inv;
  return oc;
}

}  // namespace critter::tune
