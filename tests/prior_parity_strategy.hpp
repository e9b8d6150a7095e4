// "prior-parity": a test strategy whose asks depend on every prior it is
// fed.  It evaluates one configuration per batch, half its range in total,
// and takes the lowest unevaluated position after an even number of
// ingested priors and the highest after an odd number.  The built-in
// strategies ignore an empty prior; a user-registered one need not, so
// this strategy tells apart any two paths that feed it different priors —
// two executors, or a live sweep and a resume that replays its exchange
// deltas.
//
// Shard workers rebuild the strategy from the registry, so a test binary
// registers it in main() before the --shard-worker hand-off.
#pragma once

#include <memory>
#include <vector>

#include "tune/strategy.hpp"

namespace critter::testkit {

class PriorParityStrategy final : public tune::SearchStrategy {
 public:
  explicit PriorParityStrategy(const tune::StrategyContext& ctx)
      : begin_(ctx.begin),
        budget_((ctx.end - ctx.begin) / 2),
        claimed_(static_cast<std::size_t>(ctx.end - ctx.begin), false) {}

  const char* name() const override { return "prior-parity"; }

  std::vector<int> next_batch(int /*max_batch*/) override {
    if (taken_ >= budget_) return {};
    const int n = static_cast<int>(claimed_.size());
    for (int k = 0; k < n; ++k) {
      const int i = priors_ % 2 == 0 ? k : n - 1 - k;
      if (claimed_[static_cast<std::size_t>(i)]) continue;
      claimed_[static_cast<std::size_t>(i)] = true;
      ++taken_;
      return {begin_ + i};
    }
    return {};
  }

  void observe(const tune::ConfigOutcome& /*oc*/) override {}

  void ingest_prior(const core::StatSnapshot& /*snap*/) override { ++priors_; }

 private:
  int begin_;
  int budget_;
  int taken_ = 0;
  int priors_ = 0;
  std::vector<bool> claimed_;
};

inline void register_prior_parity_strategy() {
  tune::register_strategy(
      "prior-parity",
      [](const tune::StrategyContext& ctx, const tune::StrategyOptions& opts)
          -> std::unique_ptr<tune::SearchStrategy> {
        tune::check_strategy_options("prior-parity", opts, {});
        return std::make_unique<PriorParityStrategy>(ctx);
      },
      "test only: ask order flips with every ingested prior");
}

}  // namespace critter::testkit
