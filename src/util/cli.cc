#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace critter::util {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    CRITTER_CHECK(arg.rfind("--", 0) == 0, "expected --key[=value], got: " + arg);
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = '1';
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::stoll(it->second);
}

double Options::get_double(const std::string& key, double dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::stod(it->second);
}

std::int64_t env_int(const char* name, std::int64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return std::stoll(v);
}

bool paper_scale() { return env_int("CRITTER_PAPER_SCALE", 0) != 0; }

}  // namespace critter::util
