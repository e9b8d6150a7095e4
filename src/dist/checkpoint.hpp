// Shard checkpoint format: the durable record a session journal publishes
// so a relaunched shard worker or a restarted tuner daemon can resume its
// session bit-identically (DESIGN.md §10).
//
// A checkpoint is the full replay recipe of a session prefix:
//
//   * the progress cursor (completed batches, completed exchange rounds,
//     batches into the current round);
//   * every batch told so far — positions plus raw outcome bits — so the
//     resumed session can re-ask/re-tell the strategy into the exact state
//     the crashed worker had (asks are a pure function of told outcomes and
//     ingested priors, and tell() contributes no kernel statistics);
//   * the accumulated per-configuration totals, which tell() does not
//     carry;
//   * the session's statistics snapshots: the full state (wholesale
//     import on resume), and with mid-sweep exchange on, the delta
//     baseline `mark` and the shard's own-contribution `own`;
//   * the non-strict exchange skips taken so far, so replay skips the
//     same (round, peer) pairs the live run skipped.
//
// The payload starts with the "CRCKPT02" magic and ends in a
// util::checksum64 trailer over everything before it, so any truncation or
// byte flip is rejected by parse_checkpoint() even when the publish
// manifest happens to match (e.g. corruption at the source).  The magic is
// checked first: a slot of an older format fails as "bad magic".
//
// SessionJournal (bottom of this file) is the one writer and reader of the
// format: full checkpoints in two alternating slots, CRCKINC3 increments in
// an append-only log between them.  Shard workers and tuner-daemon sessions
// both journal through it.  A torn or corrupt latest slot falls back to the
// previous one, and a worker with no valid checkpoint restarts cleanly —
// which is still bit-identical, since round deltas persist in the exchange
// mailbox and re-publishing is idempotent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/stat_store.hpp"
#include "dist/executor.hpp"
#include "tune/tuner.hpp"
#include "util/function_ref.hpp"

namespace critter::dist {

struct ShardCheckpoint {
  std::int64_t seq = 0;     ///< monotonically increasing per shard
  int batches = 0;          ///< completed (told) batches — the cursor
  int rounds = 0;           ///< completed exchange rounds
  int in_round = 0;         ///< batches into the current round
  int exchange_skips = 0;   ///< non-strict rounds skipped so far
  /// (round, peer) pairs skipped in non-strict mode, in occurrence order.
  std::vector<std::pair<int, int>> skipped;
  struct ToldBatch {
    std::vector<int> positions;  ///< study.configs positions, ascending
    std::vector<tune::ConfigOutcome> outcomes;
  };
  std::vector<ToldBatch> told;  ///< one entry per completed batch
  /// Accumulated totals for the shard's range, indexed range-relative.
  std::vector<tune::ConfigTotals> totals;
  bool has_exchange_state = false;
  /// Serialized payloads of the session statistics, and with exchange on
  /// of the delta baseline and the own-contribution accumulator ("" =
  /// empty snapshot).  serialize_checkpoint writes these bytes verbatim,
  /// so a slot is the exact byte string the log's byte patches splice onto.
  std::string full_bytes;
  std::string mark_bytes;
  std::string own_bytes;
  /// The same three payloads decoded.  Read side only: parse_checkpoint
  /// and apply_increment fill them for a resume; nothing serializes them,
  /// and a SessionJournal's state() never holds them.
  core::StatSnapshot full;
  core::StatSnapshot mark;
  core::StatSnapshot own;
};

/// Incremental checkpoint record.  Between two full checkpoints the journal
/// appends one framed increment per record to its append-only log instead
/// of rewriting the whole replay recipe — the full
/// snapshot, the complete told history, and the totals grow with the sweep,
/// while what a single checkpoint actually adds stays constant-sized.  An
/// increment carries only the change since the previous record (full or
/// increment): the advanced cursors, the newly told batches and skips, the
/// totals of the configurations those batches touched, and *byte patches*
/// for the session statistics and — with exchange on — the mark/own
/// snapshots.  Each patch field is one of:
///
///   * "" — the snapshot's serialized bytes are unchanged;
///   * a mode-0 sparse payload (core::encode_sparse_patch, DESIGN.md §13)
///     that splices dirty rank chunks onto the previous record's bytes;
///   * a full CRSTAT payload — wholesale replacement, used when the
///     previous record had no snapshot to patch (empty -> non-empty), and
///     by the tuner daemon whenever a client TELLs full state.
///
/// Byte patches replace the StatSnapshot::diff deltas of the original
/// CRCKINC1 scheme: a spliced payload is the *exact* byte string the worker
/// held, where diff + merge reconstruction — though exact by the merge
/// algebra — still paid a full semantic walk on both ends.  Resume loads
/// the best full slot and replays the longest valid prefix of the log on
/// top of it (apply_increment), so a torn append costs at most one
/// checkpoint of progress, never the base.
struct CheckpointIncrement {
  std::int64_t base_seq = 0;  ///< seq of the full checkpoint the log extends
  std::int64_t seq = 0;       ///< overall checkpoint sequence number
  // Absolute cursor values as of this record.
  int batches = 0;
  int rounds = 0;
  int in_round = 0;
  int exchange_skips = 0;
  std::vector<std::pair<int, int>> new_skipped;
  std::vector<ShardCheckpoint::ToldBatch> new_told;
  /// Rewritten totals, as (range-relative index, value), ascending — the
  /// dirty subset named by the new batches' positions.
  std::vector<std::pair<int, tune::ConfigTotals>> dirty_totals;
  std::string full_patch;  ///< session-stats byte patch since previous record
  bool has_exchange_state = false;
  std::string mark_patch;  ///< delta-baseline byte patch (exchange on)
  std::string own_patch;   ///< own-contribution byte patch (exchange on)
};

std::string serialize_checkpoint(const ShardCheckpoint& c);
std::string serialize_increment(const CheckpointIncrement& inc);

/// Parse and validate one increment payload (unframed).  Shape checks
/// mirror parse_checkpoint: positions inside the shard range and ordered,
/// plausible counts, no trailing bytes.  Continuity against the base is
/// apply_increment's job.
CheckpointIncrement parse_increment(const std::string& payload,
                                    const tune::Study& study,
                                    const ShardRange& range);

/// Extend `ck` — a full checkpoint, possibly already extended — by one
/// increment.  Byte patches splice onto ck's *_bytes fields and the decoded
/// snapshots are refreshed from the spliced payloads (which re-validates
/// every patched chunk).  Throws on any discontinuity: wrong base, sequence
/// gap, cursors that do not add up, or a patch that does not fit its base;
/// `ck` is unchanged on throw.
void apply_increment(ShardCheckpoint& ck, std::int64_t base_seq,
                     CheckpointIncrement&& inc);

/// Log framing: [u64 payload length][u64 checksum64 of payload][payload].
std::string frame_log_record(const std::string& payload);

/// The longest valid framed-record prefix of a log blob.  Scanning stops at
/// the first truncated frame or checksum mismatch — everything before a
/// torn or corrupt append is still trusted.
std::vector<std::string> scan_log_records(const std::string& blob);

/// Parse and fully validate a checkpoint payload; `study`/`range` rebind
/// the outcome configurations and bound every cursor.  Throws on any
/// corruption — bad magic, truncation, byte flips (checksum trailer),
/// implausible counters, positions outside the range — before returning
/// partial state.
ShardCheckpoint parse_checkpoint(const std::string& payload,
                                 const tune::Study& study,
                                 const ShardRange& range);

/// The payload bytes one patch field turns `base` into: "" leaves them
/// unchanged, a mode-0 sparse patch (DESIGN.md §13) splices dirty rank
/// chunks onto them, and a full payload replaces them.  Every incoming
/// chunk is checked with the decoder's structural rules, but no table is
/// built.  Increment replay and the tuner daemon's TELL both resolve
/// patches here.
std::string patched_bytes(const std::string& base, const std::string& patch);

/// The durable journal of one tuning session (DESIGN.md §10, §11): a full
/// checkpoint slot, then up to kIncrementsPerFull increments appended to
/// the log, then a full slot in the other slot, and so on.  Two owners use
/// it — a shard worker (with exchange state) and a tuner-daemon session
/// (without) — and each only says what a record adds.  The journal holds
/// the one copy of the journaled state and makes every durable decision:
/// full slot or increment, which slot, publishing a new slot before it
/// removes the log, and re-basing after a resume.
class SessionJournal {
 public:
  /// A full slot, then up to this many increments, then a full slot.
  static constexpr std::int64_t kIncrementsPerFull = 16;

  /// What one record adds to state(): the newly told batches and skips,
  /// the exchange cursors, and each statistics payload's new bytes with
  /// the byte patch that turns state()'s bytes into them.  A payload whose
  /// bytes are left unset is unchanged, and its patch stays "".
  struct Step {
    std::vector<ShardCheckpoint::ToldBatch> told;
    std::vector<std::pair<int, int>> skipped;
    /// Exchange cursors after the step.  Without exchange they are not
    /// read: rounds stay 0 and in_round counts every batch.
    int rounds = 0;
    int in_round = 0;
    std::optional<std::string> full_bytes, mark_bytes, own_bytes;
    std::string full_patch, mark_patch, own_patch;
  };

  /// How a fault-injected write reaches the disk.  Torn: half an increment
  /// is appended, or a full slot's payload is renamed in without its
  /// manifest.  Corrupt: the record is written with one byte corrupted.
  enum class Damage { None, Torn, Corrupt };
  /// The fault-injection seam on the journal's write step (tests only).
  /// Once set, every record is written by calling the `write` the seam is
  /// handed, exactly once, with the damage to inflict.  A seam that
  /// inflicts damage must end the process: the journal does not go on.
  using WriteSeam =
      std::function<void(const std::function<void(Damage)>& write)>;

  /// A journal under `dir` for the configurations of `range`; `exchanging`
  /// adds the mark/own payloads to every record.
  SessionJournal(std::string dir, ShardRange range, bool exchanging);

  /// The resumed statistics payloads, decoded — for an owner that rebuilds
  /// a live session from them.
  struct Decoded {
    core::StatSnapshot full, mark, own;
  };

  /// Load the newest valid full slot, then apply the longest valid prefix
  /// of the log to it; the decoded payloads go to `decoded` if given, and
  /// state() keeps bytes only.  If a log file was present, the next record
  /// is a full slot: increments appended after a torn or stale tail could
  /// not be reached by a later resume.  False, with state() unchanged, when
  /// no slot is usable.
  bool resume(const tune::Study& study, Decoded* decoded = nullptr);

  /// Re-ask and re-tell every told batch of state() into `tuner`; throws if
  /// the strategy proposes any batch other than the recorded one (replay,
  /// not trust).  `after_batch` runs after each batch.
  void replay(tune::Tuner& tuner, util::FunctionRef after_batch = {}) const;

  /// Clean restart: remove both slots and the log, and reset state().
  void discard();

  /// The journaled state as of the last record or resume.
  const ShardCheckpoint& state() const { return state_; }

  /// True when the next record will be a full slot; patches are not read.
  bool next_is_full() const;

  /// Make the next record a full slot.
  void force_full() { force_full_ = true; }

  /// Replace the session statistics bytes out of band (a warm start, an
  /// import).  Increments after it would patch bytes no resume can
  /// rebuild, so the next record is a full slot.
  void replace_bytes(std::string full_bytes);

  /// Journal one record.  `totals` are the session's per-configuration
  /// totals, indexed by study position; a record stores the entries its
  /// new batches touched (a full slot stores the whole range).
  void record(Step step, const std::vector<tune::ConfigTotals>& totals);

  void set_write_seam(WriteSeam seam) { seam_ = std::move(seam); }

 private:
  void reset();
  void write(bool full_slot, const std::string& bytes);

  std::string dir_;
  ShardRange range_;
  bool exchanging_ = false;
  ShardCheckpoint state_;
  std::int64_t base_seq_ = 0;  ///< seq of the full slot the log extends
  int next_slot_ = 0;          ///< always the slot not holding the base
  bool force_full_ = false;
  WriteSeam seam_;
};

}  // namespace critter::dist
