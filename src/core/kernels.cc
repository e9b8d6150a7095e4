#include "core/kernels.hpp"

#include "sim/api.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace critter {

namespace detail {

namespace {
/// Fixed per-kernel launch overhead added to the gamma*flops model (s).
constexpr double kKernelOverhead = 5.0e-7;

/// One noisy sample of the kernel's execution time: gamma*flops plus launch
/// overhead, scaled by a unit-mean lognormal factor drawn deterministically
/// from (machine seed, signature, rank, execution index).
double noisy_cost(const core::KernelKey& key, double flops,
                  std::int64_t draw_index) {
  const sim::Machine& m = sim::engine().machine();
  const double factor = util::lognormal_factor(
      m.comp_noise, util::hash_combine(m.seed, key.hash()),
      util::hash_combine(static_cast<std::uint64_t>(sim::world_rank()),
                         static_cast<std::uint64_t>(draw_index)));
  return (m.gamma * flops + kKernelOverhead) * factor;
}
}  // namespace

double intercept_compute(const core::KernelKey& key, double flops,
                         util::FunctionRef real_work) {
  const Config& cfg = config();
  if (!cfg.instrument) {
    // Uninstrumented baseline: every kernel executes with the same noisy
    // cost distribution, no statistics, no decisions.
    RankProfiler& rp = prof();
    core::KernelStats& ks = detail::stats_for(rp, key);  // only used as a draw counter
    const double dt = noisy_cost(key, flops, ks.total_executions++);
    sim::advance(dt);
    if (cfg.mode == ExecMode::Real && real_work) real_work();
    return dt;
  }
  RankProfiler& rp = prof();
  core::KernelStats& ks = detail::stats_for(rp, key);
  detail::note_invocation(rp, key, ks);
  bool execute = detail::wants_execution(rp, cfg, key, ks);

  // Cross-size extrapolation (paper SVIII): an unseen kernel whose
  // (class, flags) bucket already has a tight size model is skipped
  // outright; the model's prediction seeds its statistics.
  if (execute && cfg.extrapolate && cfg.selective && ks.n == 0) {
    const double predicted = rp.table.size_model.predict(key, flops);
    if (predicted > 0.0) {
      ks.add_sample(predicted);  // seed so skips have a mean to charge
      execute = false;
      ++rp.local.extrapolated;
    }
  }

  double dt;
  if (execute) {
    dt = noisy_cost(key, flops, ks.total_executions);
    sim::advance(dt);
    ks.add_sample(dt);
    ++ks.executions_this_epoch;
    ++ks.total_executions;
    rp.local.kernel_comp_time += dt;
    ++rp.local.executed;
  } else {
    dt = ks.mean;
    ++rp.local.skipped;
    if (cfg.extrapolate && !ks.extrapolation_observed) {
      // the kernel is steady (it was just skipped): contribute its mean
      // as one (flops, time) point of the size model
      ks.extrapolation_observed = true;
      rp.table.size_model.observe(key, flops, ks.mean);
    }
  }
  if (cfg.mode == ExecMode::Real && real_work) real_work();

  rp.path.exec_time += dt;
  rp.path.comp_time += dt;
  rp.path.comp_cost += flops;
  rp.local.modeled_comp_time += dt;
  rp.local.flops += flops;
  return dt;
}

}  // namespace detail

double user_kernel(std::uint64_t name_hash, std::int64_t d0, std::int64_t d1,
                   double flops, util::FunctionRef real_work) {
  core::KernelKey key{core::KernelClass::User,
                      {d0, d1, static_cast<std::int64_t>(name_hash & 0x7FFFFFFF), 0},
                      0};
  return detail::intercept_compute(key, flops, real_work);
}

}  // namespace critter

namespace critter::blas {

namespace {
using core::KernelClass;
using core::KernelKey;
using detail::intercept_compute;

std::int64_t fb(int a, int b = 0, int c = 0, int d = 0) {
  return a | (b << 2) | (c << 4) | (d << 6);
}
}  // namespace

void gemm(la::Trans ta, la::Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc) {
  KernelKey key{KernelClass::Gemm, {m, n, k, fb(static_cast<int>(ta), static_cast<int>(tb))}, 0};
  intercept_compute(key, la::gemm_flops(m, n, k), [&] {
    la::gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  });
}

void syrk(la::Uplo uplo, la::Trans trans, int n, int k, double alpha,
          const double* a, int lda, double beta, double* c, int ldc) {
  KernelKey key{KernelClass::Syrk, {n, k, 0, fb(static_cast<int>(uplo), static_cast<int>(trans))}, 0};
  intercept_compute(key, la::syrk_flops(n, k), [&] {
    la::syrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
  });
}

void trsm(la::Side side, la::Uplo uplo, la::Trans trans, la::Diag diag, int m,
          int n, double alpha, const double* a, int lda, double* b, int ldb) {
  KernelKey key{KernelClass::Trsm,
                {m, n, 0, fb(static_cast<int>(side), static_cast<int>(uplo),
                             static_cast<int>(trans), static_cast<int>(diag))},
                0};
  intercept_compute(key, la::trsm_flops(side, m, n), [&] {
    la::trsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
  });
}

void trmm(la::Side side, la::Uplo uplo, la::Trans trans, la::Diag diag, int m,
          int n, double alpha, const double* a, int lda, double* b, int ldb) {
  KernelKey key{KernelClass::Trmm,
                {m, n, 0, fb(static_cast<int>(side), static_cast<int>(uplo),
                             static_cast<int>(trans), static_cast<int>(diag))},
                0};
  intercept_compute(key, la::trmm_flops(side, m, n), [&] {
    la::trmm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
  });
}

}  // namespace critter::blas

namespace critter::lapack {

namespace {
using core::KernelClass;
using core::KernelKey;
using critter::detail::intercept_compute;
}  // namespace

void potrf(la::Uplo uplo, int n, double* a, int lda) {
  KernelKey key{KernelClass::Potrf, {n, 0, 0, static_cast<int>(uplo)}, 0};
  intercept_compute(key, la::potrf_flops(n), [&] {
    const int info = la::potrf(uplo, n, a, lda);
    CRITTER_CHECK(info == 0, "potrf failed on a non-SPD block");
  });
}

void trtri(la::Uplo uplo, la::Diag diag, int n, double* a, int lda) {
  KernelKey key{KernelClass::Trtri,
                {n, 0, 0, static_cast<int>(uplo) | (static_cast<int>(diag) << 2)}, 0};
  intercept_compute(key, la::trtri_flops(n), [&] {
    const int info = la::trtri(uplo, diag, n, a, lda);
    CRITTER_CHECK(info == 0, "trtri failed on a singular block");
  });
}

void getrf(int m, int n, double* a, int lda, int* ipiv) {
  KernelKey key{KernelClass::Getrf, {m, n, 0, 0}, 0};
  intercept_compute(key, la::getrf_flops(m, n), [&] {
    const int info = la::getrf(m, n, a, lda, ipiv);
    CRITTER_CHECK(info == 0, "getrf failed on a singular block");
  });
}

void geqrf(int m, int n, double* a, int lda, double* tau, int nb) {
  KernelKey key{KernelClass::Geqrf, {m, n, nb, 0}, 0};
  intercept_compute(key, la::geqrf_flops(m, n),
                    [&] { la::geqrf(m, n, a, lda, tau, nb); });
}

void ormqr(la::Side side, la::Trans trans, int m, int n, int k,
           const double* a, int lda, const double* tau, double* c, int ldc,
           int nb) {
  KernelKey key{KernelClass::Ormqr,
                {m, n, k, static_cast<int>(side) | (static_cast<int>(trans) << 2)}, 0};
  intercept_compute(key, la::ormqr_flops(side, m, n, k), [&] {
    la::ormqr(side, trans, m, n, k, a, lda, tau, c, ldc, nb);
  });
}

void geqrt(int m, int n, double* a, int lda, double* t, int ldt) {
  KernelKey key{KernelClass::Geqrt, {m, n, 0, 0}, 0};
  intercept_compute(key, la::geqrt_flops(m, n),
                    [&] { la::geqrt(m, n, a, lda, t, ldt); });
}

void tpqrt(int m, int n, int l, double* a, int lda, double* b, int ldb,
           double* t, int ldt) {
  KernelKey key{KernelClass::Tpqrt, {m, n, l, 0}, 0};
  intercept_compute(key, la::tpqrt_flops(m, n, l),
                    [&] { la::tpqrt(m, n, l, a, lda, b, ldb, t, ldt); });
}

void tpmqrt(la::Trans trans, int m, int ncols, int k, const double* v, int ldv,
            const double* t, int ldt, double* a, int lda, double* b, int ldb) {
  KernelKey key{KernelClass::Tpmqrt, {m, ncols, k, static_cast<int>(trans)}, 0};
  intercept_compute(key, la::tpmqrt_flops(m, ncols, k, 0), [&] {
    la::tpmqrt(trans, m, ncols, k, v, ldv, t, ldt, a, lda, b, ldb);
  });
}

}  // namespace critter::lapack
