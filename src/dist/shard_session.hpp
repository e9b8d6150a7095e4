// Internal: one shard's sweep as a state machine with named transitions.
// Both executors drive it — the in-process lockstep steps every shard of a
// round between its barriers, the subprocess worker steps its own shard
// and moves the deltas through the run directory — so the round rules
// exist once: when a round is due, who publishes, who absorbs, what a
// delta carries and what a journal record holds (DESIGN.md §8, §10).
//
//   step() until round_due(), take_delta(), then — if reads_peers() —
//   absorb() or skip() each peer in ascending shard order, end_round().
#pragma once

#include <functional>

#include "core/stat_store.hpp"
#include "dist/checkpoint.hpp"
#include "dist/executor.hpp"
#include "tune/tuner.hpp"
#include "util/function_ref.hpp"

namespace critter::dist {

/// A Tuner session over one shard's range plus its exchange and journal
/// state: the cursors (batches told, completed rounds, batches into the
/// current round); `mark`, the baseline of the next delta (the state right
/// after the previous round's absorption); `own`, the shard's own
/// contribution (initial state plus its own deltas, never peers') — the
/// snapshot the final fold consumes; and the journal step pending since
/// the last record (told batches, skipped peers).  In reset mode
/// (tune::resets_statistics) deltas, `mark` and `own` hold only the state
/// that survives a reset: the next configuration's reset store could not
/// be diffed against a configuration's kernel statistics, and no peer
/// could use them.
class ShardSession {
 public:
  /// Exchange is on when `every` > 0 and the fleet has several shards.
  ShardSession(const tune::Study& study, const tune::TuneOptions& opt,
               const ShardRange& range, int nshards, int every);

  /// Ask, evaluate and tell one batch; false once the strategy is
  /// exhausted (done() from then on).
  bool step();

  /// A round delta is owed: `every` batches ran since the last round, or
  /// the strategy ran out mid-round (the trailing partial round).
  bool round_due() const {
    return every_ > 0 && (in_round_ == every_ || (done_ && in_round_ > 0));
  }
  /// Whether the due round reads the peers' deltas: a shard that finished
  /// mid-round publishes its trailing delta and reads none.
  bool reads_peers() const { return !done_; }

  /// This round's delta (grown since `mark`), folded into `own`; taken
  /// before any peer is absorbed, so it is a pure function of the round.
  core::StatSnapshot take_delta();
  /// Fold a peer's round delta into the session; true unless it was empty
  /// (a peer with no shared statistics), which the strategy never sees.
  bool absorb(const core::StatSnapshot& delta);
  /// A peer's delta is missing or corrupt (non-strict exchange).
  void skip(int peer);
  /// `mark` becomes the post-absorption state; the round advances.
  void end_round();

  /// Journal the pending step: the statistics byte-patched against the
  /// journal's bytes (DESIGN.md §13) — `mark` and `own` only when they were
  /// assigned since the last record — or a full slot when no patch applies.
  void record(SessionJournal& journal);

  /// Resume a fresh session from the journal's newest checkpoint through
  /// Tuner::resume; `read_peer(peer, round)` re-reads from the mailbox the
  /// deltas each replayed round absorbed (empty: none published), and
  /// `on_batch` runs after each replayed batch.  False, session untouched,
  /// when no checkpoint is usable; throws when the replay diverges,
  /// leaving the session unusable (the caller restarts clean).
  bool resume(SessionJournal& journal,
              const std::function<core::StatSnapshot(int, int)>& read_peer,
              util::FunctionRef on_batch);

  /// The shard product for the fold: the range's outcomes and totals, with
  /// `own` as the statistics when exchanging.
  ShardResult result() const;

  bool exchanging() const { return every_ > 0; }
  bool done() const { return done_; }
  int batches() const { return batches_; }
  /// Completed exchange rounds — also the index of the round in progress.
  int rounds() const { return rounds_; }

 private:
  /// The shared statistics, in reset mode without kernel statistics.
  core::StatSnapshot exchange_state() const;
  void next_round() {
    ++rounds_;
    in_round_ = 0;
  }

  tune::Tuner tuner_;
  ShardRange range_;
  int nshards_;
  int every_;  ///< 0: exchange off
  core::StatSnapshot mark_, own_;
  int batches_ = 0, rounds_ = 0, in_round_ = 0;
  int skips_ = 0, resumed_batches_ = 0;
  bool done_ = false;
  SessionJournal::Step pending_;
  /// `mark` / `own` were assigned since the last record returned.
  bool mark_dirty_ = false, own_dirty_ = false;
};

}  // namespace critter::dist
