// Regenerates the golden bit-identity fixtures under tests/golden/.
//
// The fixtures pin the *statistics content* (not acceleration structures)
// of the deterministic sweeps listed in tests/golden_digest.hpp
// (kGoldenFixtures), which also says exactly what is digested.  The online,
// eager and batch fixtures were produced by the pre-arena, pre-fast-path
// build; apriori and isolated by the build before the evaluator's reference
// run became a pool task of its own; the five tolerance-2^-3 fixtures
// (capital_*, candmc_online, slate_conditional, slate_local) by the build
// before runs whose policy reads no ~K stopped keeping it.  They must only
// ever be regenerated on purpose — a performance refactor that changes
// these digests has broken the determinism contract (DESIGN.md §6/§11),
// not "updated a baseline".  CI regenerates every fixture into a scratch
// directory and diffs it against tests/golden.
//
// Usage: gen_golden <output-dir>
#include <cstdio>
#include <string>

#include "../tests/golden_digest.hpp"

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/golden";
  for (const char* which : critter::testing::kGoldenFixtures) {
    const std::string digest = critter::testing::golden_digest(which);
    const std::string path = dir + "/sweep_" + which + ".digest";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fwrite(digest.data(), 1, digest.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), digest.size());
  }
  return 0;
}
