// Run-manifest codec: the text key=value format through which a launcher
// tells a worker — or a tuner daemon tells itself, across a restart —
// exactly which study and TuneOptions to rebuild.  Doubles travel as C
// "%a" hex floats so a round-trip is bit-exact; configuration subsets
// travel by absolute index and are re-validated against the registry
// workload's space on the way back in.
//
// Extracted from the subprocess executor so the serve daemon's session
// journals speak the identical study/options identity (a session resumed
// from its journal must rebuild the same sweep a worker would).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/executor.hpp"
#include "tune/tuner.hpp"

namespace critter::dist {

using Manifest = std::map<std::string, std::string>;

/// Bit-exact double formatting ("%a") for manifest values.
std::string hex_double(double v);

/// Parse key=value lines; CRITTER_CHECK-fails on a malformed line.
Manifest parse_manifest(const std::string& text);

std::string manifest_get(const Manifest& m, const std::string& key);
std::int64_t manifest_int(const Manifest& m, const std::string& key);
std::uint64_t manifest_u64(const Manifest& m, const std::string& key);
double manifest_double(const Manifest& m, const std::string& key);

std::vector<int> parse_index_list(const std::string& csv);

/// The study-identity lines: workload, scale, rank count, configuration
/// indices.  rebuild_study() is the inverse, re-deriving the study from
/// the workload registry and validating every index against its space.
void write_study_identity(std::string& out, const tune::Study& study,
                          bool paper_scale);
tune::Study rebuild_study(const Manifest& m);

/// The TuneOptions lines (everything a worker needs except the range and
/// the in-memory warm/prior snapshots, which travel separately).
/// rebuild_options() is the inverse.
void write_tune_options(std::string& out, const tune::TuneOptions& opt);
tune::TuneOptions rebuild_options(const Manifest& m);

/// Whether the launcher's study matches the registry workload at paper or
/// smoke scale; CRITTER_CHECK-fails if neither (ad-hoc studies cannot be
/// rebuilt from a manifest).
bool detect_paper_scale(const tune::Study& study);

/// The full subprocess-run manifest (study + options + shard plan +
/// exchange/fault policy).
std::string build_run_manifest(const tune::Study& study, bool paper_scale,
                               const tune::TuneOptions& opt,
                               const std::vector<ShardRange>& shards,
                               const ExchangePolicy& exchange,
                               const FaultPolicy& fault, bool warm);

/// Parse this shard's "shard<k>=begin,end" line.
ShardRange shard_range_of(const Manifest& m, int shard);

}  // namespace critter::dist
