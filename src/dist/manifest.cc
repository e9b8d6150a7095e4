#include "dist/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace critter::dist {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

Manifest parse_manifest(const std::string& text) {
  Manifest m;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    CRITTER_CHECK(eq != std::string::npos,
                  "run manifest: malformed line '" + line + "'");
    m[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return m;
}

std::string manifest_get(const Manifest& m, const std::string& key) {
  const auto it = m.find(key);
  CRITTER_CHECK(it != m.end(), "run manifest: missing key '" + key + "'");
  return it->second;
}

std::int64_t manifest_int(const Manifest& m, const std::string& key) {
  return std::strtoll(manifest_get(m, key).c_str(), nullptr, 10);
}

std::uint64_t manifest_u64(const Manifest& m, const std::string& key) {
  return std::strtoull(manifest_get(m, key).c_str(), nullptr, 10);
}

double manifest_double(const Manifest& m, const std::string& key) {
  return std::strtod(manifest_get(m, key).c_str(), nullptr);
}

std::vector<int> parse_index_list(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ','))
    if (!tok.empty()) out.push_back(std::atoi(tok.c_str()));
  return out;
}

void write_study_identity(std::string& out, const tune::Study& study,
                          bool paper_scale) {
  std::ostringstream os;
  os << "workload=" << study.workload << "\n";
  os << "paper_scale=" << (paper_scale ? 1 : 0) << "\n";
  os << "nranks=" << study.nranks << "\n";
  os << "config_indices=";
  for (std::size_t i = 0; i < study.configs.size(); ++i)
    os << (i > 0 ? "," : "") << study.configs[i].index;
  os << "\n";
  out += os.str();
}

tune::Study rebuild_study(const Manifest& m) {
  const std::string workload = manifest_get(m, "workload");
  tune::Study study =
      tune::workload_study(workload, manifest_int(m, "paper_scale") != 0);
  CRITTER_CHECK(study.nranks == manifest_int(m, "nranks"),
                "run manifest: study rank count mismatch for " + workload);
  const std::vector<int> indices =
      parse_index_list(manifest_get(m, "config_indices"));
  std::vector<tune::Configuration> configs;
  configs.reserve(indices.size());
  for (int idx : indices) {
    CRITTER_CHECK(idx >= 0 && idx < static_cast<int>(study.configs.size()) &&
                      study.configs[idx].index == idx,
                  "run manifest: configuration index " + std::to_string(idx) +
                      " not in the workload's space");
    configs.push_back(study.configs[idx]);
  }
  study.configs = std::move(configs);
  return study;
}

void write_tune_options(std::string& out, const tune::TuneOptions& opt) {
  std::ostringstream os;
  os << "policy=" << policy_name(opt.policy) << "\n";
  os << "tolerance=" << hex_double(opt.tolerance) << "\n";
  os << "samples=" << opt.samples << "\n";
  os << "reset_per_config=" << (opt.reset_per_config ? 1 : 0) << "\n";
  os << "seed_salt=" << opt.seed_salt << "\n";
  os << "comp_noise=" << hex_double(opt.comp_noise) << "\n";
  os << "comm_noise=" << hex_double(opt.comm_noise) << "\n";
  os << "tilde_capacity=" << opt.tilde_capacity << "\n";
  os << "extrapolate=" << (opt.extrapolate ? 1 : 0) << "\n";
  os << "workers=" << opt.workers << "\n";
  os << "batch=" << opt.batch << "\n";
  os << "strategy=" << opt.strategy << "\n";
  for (const auto& [k, v] : opt.strategy_options) {
    CRITTER_CHECK(v.find('\n') == std::string::npos &&
                      k.find('\n') == std::string::npos,
                  "strategy options must be single-line");
    os << "strategy_opt." << k << "=" << v << "\n";
  }
  out += os.str();
}

tune::TuneOptions rebuild_options(const Manifest& m) {
  tune::TuneOptions opt;
  opt.policy = parse_policy(manifest_get(m, "policy"));
  opt.tolerance = manifest_double(m, "tolerance");
  opt.samples = static_cast<int>(manifest_int(m, "samples"));
  opt.reset_per_config = manifest_int(m, "reset_per_config") != 0;
  opt.seed_salt = manifest_u64(m, "seed_salt");
  opt.comp_noise = manifest_double(m, "comp_noise");
  opt.comm_noise = manifest_double(m, "comm_noise");
  opt.tilde_capacity = static_cast<int>(manifest_int(m, "tilde_capacity"));
  opt.extrapolate = manifest_int(m, "extrapolate") != 0;
  opt.workers = static_cast<int>(manifest_int(m, "workers"));
  opt.batch = static_cast<int>(manifest_int(m, "batch"));
  opt.strategy = manifest_get(m, "strategy");
  for (const auto& [k, v] : m)
    if (k.rfind("strategy_opt.", 0) == 0)
      opt.strategy_options[k.substr(13)] = v;
  return opt;
}

bool detect_paper_scale(const tune::Study& study) {
  for (const bool scale : {false, true}) {
    const tune::Study ref = tune::workload_study(study.workload, scale);
    if (ref.nranks == study.nranks && ref.m == study.m &&
        ref.n == study.n && ref.space.size() == study.space.size())
      return scale;
  }
  CRITTER_CHECK(false,
                "cannot reconstruct study '" + study.name +
                    "' from workload '" + study.workload +
                    "' at either scale — tune it in-process instead");
  return false;
}

std::string build_run_manifest(const tune::Study& study, bool paper_scale,
                               const tune::TuneOptions& opt,
                               const std::vector<ShardRange>& shards,
                               const ExchangePolicy& exchange,
                               const FaultPolicy& fault, bool warm) {
  std::string out;
  write_study_identity(out, study, paper_scale);
  write_tune_options(out, opt);
  std::ostringstream os;
  os << "exchange_every=" << exchange.every << "\n";
  os << "exchange_strict=" << (exchange.strict ? 1 : 0) << "\n";
  os << "exchange_deadline_s=" << hex_double(fault.exchange_deadline_s)
     << "\n";
  os << "checkpoint_every=" << fault.checkpoint_every << "\n";
  // Exchange-mailbox garbage collection (DESIGN.md §13) is only sound when
  // no worker can ever resume and replay history: a retried shard re-reads
  // its absorbed deltas from the mailbox, so any checkpoint/retry policy
  // pins the full delta history for the run's lifetime.
  os << "gc_exchange="
     << (fault.checkpoint_every <= 0 && fault.max_retries == 0 ? 1 : 0)
     << "\n";
  os << "nshards=" << shards.size() << "\n";
  os << "warm_start=" << (warm ? 1 : 0) << "\n";
  // An in-memory model prior travels as a published snapshot, exactly like
  // the warm start (the worker cannot see the launcher's memory).
  os << "prior_snap=" << (opt.prior != nullptr && !opt.prior->empty() ? 1 : 0)
     << "\n";
  for (const ShardRange& s : shards)
    os << "shard" << s.index << "=" << s.begin << "," << s.end << "\n";
  out += os.str();
  return out;
}

ShardRange shard_range_of(const Manifest& m, int shard) {
  const std::string spec = manifest_get(m, "shard" + std::to_string(shard));
  int lo = 0, hi = 0;
  CRITTER_CHECK(std::sscanf(spec.c_str(), "%d,%d", &lo, &hi) == 2,
                "run manifest: malformed shard range '" + spec + "'");
  return {shard, lo, hi};
}

}  // namespace critter::dist
