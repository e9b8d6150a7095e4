// ConfigOutcome/ConfigTotals field codecs shared by the dist layer's file
// formats and the net layer's tuner protocol, so every format serializes
// outcomes identically (a checkpointed outcome replayed through tell(), a
// result-file outcome, and a daemon-told outcome must all be bit-equal).
// The writer/reader primitives themselves live in core/wire_codec.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "core/wire_codec.hpp"
#include "tune/tuner.hpp"
#include "util/check.hpp"

namespace critter::dist {

using core::WireReader;
using core::WireWriter;

/// Encoded sizes of one outcome and one totals record (every field is
/// fixed-width): decoders bound a declared record count by the bytes
/// remaining before sizing anything.
inline constexpr std::size_t kOutcomeBytes = 4 + 2 + 8 * 8 + 2 * 8 + 4;
inline constexpr std::size_t kTotalsBytes = 4 * 8;

/// Every outcome field except the configuration itself, which travels as
/// its absolute index (the reader rebinds it from its view of the study).
inline void write_outcome(WireWriter& w, const tune::ConfigOutcome& oc) {
  w.i32(oc.config.index);
  w.u8(oc.evaluated ? 1 : 0);
  w.u8(oc.pruned ? 1 : 0);
  w.f64(oc.true_time);
  w.f64(oc.pred_time);
  w.f64(oc.err);
  w.f64(oc.true_comp_time);
  w.f64(oc.pred_comp_time);
  w.f64(oc.comp_err);
  w.f64(oc.sel_wall);
  w.f64(oc.sel_kernel_time);
  w.i64(oc.executed);
  w.i64(oc.skipped);
  w.i32(oc.samples_used);
}

/// Fill `oc` (whose `config` the caller has already rebound); checks the
/// wire's configuration index against the rebound one.
inline void read_outcome(WireReader& r, tune::ConfigOutcome& oc,
                         const char* what) {
  const std::int32_t idx = r.i32();
  CRITTER_CHECK(idx == oc.config.index,
                std::string(what) +
                    ": configuration index mismatch — writer and reader "
                    "disagree about the study");
  oc.evaluated = r.u8() != 0;
  oc.pruned = r.u8() != 0;
  oc.true_time = r.f64();
  oc.pred_time = r.f64();
  oc.err = r.f64();
  oc.true_comp_time = r.f64();
  oc.pred_comp_time = r.f64();
  oc.comp_err = r.f64();
  oc.sel_wall = r.f64();
  oc.sel_kernel_time = r.f64();
  oc.executed = r.i64();
  oc.skipped = r.i64();
  oc.samples_used = r.i32();
}

inline void write_totals(WireWriter& w, const tune::ConfigTotals& t) {
  w.f64(t.tuning_time);
  w.f64(t.full_time);
  w.f64(t.kernel_time);
  w.f64(t.full_kernel_time);
}

inline void read_totals(WireReader& r, tune::ConfigTotals& t) {
  t.tuning_time = r.f64();
  t.full_time = r.f64();
  t.kernel_time = r.f64();
  t.full_kernel_time = r.f64();
}

}  // namespace critter::dist
