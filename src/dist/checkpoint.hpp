// The session journal's one record format: what a shard worker or a tuner
// daemon session journals so that, relaunched or restarted, it resumes its
// session bit-identically (DESIGN.md §10, §11).
//
// A record advances a session's journaled state.  It carries:
//
//   * the cursors after it, as absolute values: sequence number, completed
//     batches, completed exchange rounds, batches into the current round,
//     and exchange skips;
//   * the batches told since the state it extends, with positions and raw
//     outcome bits.  The resumed session re-asks and re-tells the strategy
//     into the exact state the live one had: asks are a pure function of
//     told outcomes and ingested priors, and tell() adds no kernel
//     statistics;
//   * the non-strict exchange skips taken since, so replay skips the same
//     (round, peer) pairs;
//   * the totals of the configurations those batches touched, which tell()
//     does not carry;
//   * one field per statistics payload — the session statistics and, with
//     mid-sweep exchange on, the delta baseline `mark` and the shard's own
//     contribution `own` — holding "" when the payload's bytes are
//     unchanged, otherwise the whole new payload.
//
// A full checkpoint is the record that extends nothing: base 0, every told
// batch, every skip, the whole range's totals, and every payload whole,
// since the empty state's payloads are "".  Any other record names the full
// checkpoint it extends.  So one apply_record serves both: resume applies
// the best slot's record to the empty state, then the longest valid log
// prefix on top.
//
// Two envelopes hold records.  A slot is one record followed by a
// util::checksum64 trailer over it, published through core::publish_file.
// The log is a run of [u64 len][u64 checksum64][record] frames.  Every
// record starts with the "CRCKREC1" identifier.  A slot's reader checks it
// before the trailer, so a slot of an older format fails as "bad magic",
// not as corruption.
//
// SessionJournal (bottom of this file) is the one writer and reader: a full
// checkpoint in one of two alternating slots, then up to 16 records in the
// log, then a full checkpoint again.  A torn or corrupt newest slot falls
// back to the other one, and a worker with no valid slot restarts clean.
// That is still bit-identical, since round deltas persist in the exchange
// mailbox and publishing them again is idempotent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stat_store.hpp"
#include "dist/executor.hpp"
#include "tune/tuner.hpp"

namespace critter::dist {

/// The journaled state of a session: what its records add up to.
struct ShardCheckpoint {
  std::int64_t seq = 0;     ///< sequence number of the last record
  int batches = 0;          ///< completed (told) batches — the cursor
  int rounds = 0;           ///< completed exchange rounds
  int in_round = 0;         ///< batches into the current round
  int exchange_skips = 0;   ///< non-strict rounds skipped so far
  /// (round, peer) pairs skipped in non-strict mode, in occurrence order.
  std::vector<std::pair<int, int>> skipped;
  using ToldBatch = tune::ToldBatch;
  std::vector<ToldBatch> told;  ///< one entry per completed batch
  /// Accumulated totals for the shard's range, indexed range-relative.
  std::vector<tune::ConfigTotals> totals;
  bool has_exchange_state = false;
  /// Serialized payloads of the session statistics, and with exchange on
  /// of the delta baseline and the own-contribution accumulator ("" =
  /// empty snapshot): the exact byte strings the owner journaled.  A resume
  /// decodes them once, for an owner that asks.
  std::string full_bytes;
  std::string mark_bytes;
  std::string own_bytes;
};

/// One journal record: a full checkpoint when `base_seq` is 0, otherwise
/// the change since the previous record of the log extending slot
/// `base_seq`.  Each payload field (`*_patch`, the record's change to that
/// payload) is "" when the payload's bytes are unchanged, and otherwise
/// the whole CRSTAT payload that replaces them.  Bytes move whole, so the
/// payload a resume rebuilds is the exact byte string the owner held — no
/// diff/merge round trip (DESIGN.md §13).
struct JournalRecord {
  std::int64_t base_seq = 0;  ///< seq of the full checkpoint extended; 0 = none
  std::int64_t seq = 0;       ///< sequence number of this record
  // Absolute cursor values as of this record.
  int batches = 0;
  int rounds = 0;
  int in_round = 0;
  int exchange_skips = 0;
  std::vector<std::pair<int, int>> skipped;        ///< new skips
  std::vector<ShardCheckpoint::ToldBatch> told;    ///< new batches
  /// Rewritten totals as (range-relative index, value), ascending: the
  /// positions of the new batches, or the whole range for a full checkpoint.
  std::vector<std::pair<int, tune::ConfigTotals>> totals;
  bool has_exchange_state = false;
  std::string full_patch;  ///< session statistics: "" or a whole payload
  std::string mark_patch;  ///< delta baseline (exchange on): "" or whole
  std::string own_patch;   ///< own contribution (exchange on): "" or whole
};

std::string serialize_record(const JournalRecord& rec);

/// The record that extends nothing and rebuilds `ck` whole: what a full
/// checkpoint slot holds.  Also the exact image of a journaled state.
std::string serialize_record(const ShardCheckpoint& ck);

/// Parse one record (unframed).  Shape checks only: the identifier, plausible
/// cursors and counts, batch positions inside `range` and ordered, totals
/// indices inside the range and ordered, no trailing bytes.  `study` rebinds
/// the outcome configurations.  Continuity is apply_record's job.
JournalRecord parse_record(std::string_view payload, const tune::Study& study,
                           const ShardRange& range);

/// Extend `ck` by one record, whose base must be `base_seq`.  A record with
/// base 0 (a full checkpoint) applies only to the empty state and must
/// cover the whole range with totals; any other must follow `ck` in
/// sequence.  The cursors must add up, the exchange flag must match, and
/// every non-empty payload field must pass core::check_snapshot_payload;
/// nothing is decoded.  Throws on any discontinuity with `ck` unchanged.
void apply_record(ShardCheckpoint& ck, std::int64_t base_seq,
                  JournalRecord&& rec);

/// The slot envelope: `record` followed by its checksum64 trailer.
std::string seal_slot(std::string record);

/// The record inside a slot.  Checks the identifier, then the trailer, so a
/// slot of an older format fails as "bad magic" and a torn or corrupt one
/// as a checksum mismatch.
std::string_view open_slot(std::string_view slot);

/// Log framing: [u64 payload length][u64 checksum64 of payload][payload].
std::string frame_log_record(const std::string& payload);

/// The longest valid framed-record prefix of a log blob.  Scanning stops at
/// the first truncated frame or checksum mismatch — everything before a
/// torn or corrupt append is still trusted.
std::vector<std::string> scan_log_records(const std::string& blob);

/// The durable journal of one tuning session (DESIGN.md §10, §11): a full
/// checkpoint slot, then up to kIncrementsPerFull records appended to the
/// log, then a full slot in the other slot, and so on.  Durable means that
/// a record survives the death of its process (kill -9), not a host crash
/// or power loss: writes reach the page cache and nothing syncs them (the
/// cost is in DESIGN.md §12.5).  Two owners use it —
/// a shard worker (with exchange state) and a tuner-daemon session
/// (without) — and each only says what a record adds.  The journal holds the
/// one copy of the journaled state and makes every durable decision: full
/// slot or log record, which slot, publishing a new slot before it removes
/// the log, and re-basing after a resume or a failed write.
class SessionJournal {
 public:
  /// A full slot, then up to this many log records, then a full slot.
  static constexpr std::int64_t kIncrementsPerFull = 16;

  /// What one record adds to state(): the newly told batches and skips,
  /// the exchange cursors, and each statistics payload's new bytes.  A
  /// payload left unset is unchanged.  A log record writes a payload whole
  /// when its bytes differ from state()'s and "" otherwise; bytes that go
  /// from non-empty to empty, which "" cannot say, make the record a full
  /// slot.
  struct Step {
    std::vector<ShardCheckpoint::ToldBatch> told;
    std::vector<std::pair<int, int>> skipped;
    /// Exchange cursors after the step.  Without exchange they are not
    /// read: rounds stay 0 and in_round counts every batch.
    int rounds = 0;
    int in_round = 0;
    std::optional<std::string> full_bytes, mark_bytes, own_bytes;
  };

  /// How a fault-injected write reaches the disk.  Torn: half a log
  /// record is appended, or a full slot's payload is renamed in without its
  /// manifest.  Corrupt: the record is written with one byte corrupted.
  enum class Damage { None, Torn, Corrupt };
  /// The fault-injection seam on the journal's write step (tests only).
  /// Once set, every record is written by calling the `write` the seam is
  /// handed, exactly once, with the damage to inflict.  A seam that
  /// inflicts damage must end the process or throw.
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

  /// Apply the newest valid slot's record to the empty state, then the
  /// longest valid prefix of the log.  The final payloads are decoded once,
  /// into `decoded`, and only if it is given; state() keeps bytes only.  If
  /// a log file was present, the next record is a full slot: records
  /// appended after a torn or stale tail could not be reached by a later
  /// resume.  False, with state() unchanged, when no slot is usable.
  bool resume(const tune::Study& study, Decoded* decoded = nullptr);

  /// Clean restart: remove both slots and the log, and reset state().
  void discard();

  /// The journaled state as of the last durable record or resume.
  const ShardCheckpoint& state() const { return state_; }

  /// True when the next record will be a full slot whatever its step (a
  /// step that empties a payload makes one too).
  bool next_is_full() const;

  /// Make the next record a full slot.
  void force_full() { force_full_ = true; }

  /// Replace the session statistics bytes out of band (a warm start).
  /// Log records after it would extend bytes no resume can rebuild, so the
  /// next record is a full slot.
  void replace_bytes(std::string full_bytes);

  /// Journal one record.  `totals` are the session's per-configuration
  /// totals, indexed by study position; a record stores the entries its
  /// new batches touched (a full slot stores the whole range).  state()
  /// advances only once the write has landed: if it throws, state() stays
  /// at the last durable record and the next record is a full slot.  The
  /// step is consumed either way, so an owner that retries rebuilds it
  /// from state() (the tuner daemon does); a shard worker ends its attempt
  /// instead and resumes from the disk.
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
