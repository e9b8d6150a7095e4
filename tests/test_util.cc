#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include "core/fsio.hpp"
#include "dist/checkpoint.hpp"
#include "net/frame.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cu = critter::util;

TEST(Rng, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(cu::mix64(42), cu::mix64(42));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(cu::mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, U01InRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = cu::u01_from_bits(cu::mix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, LognormalFactorHasUnitMean) {
  const double sigma = 0.3;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += cu::lognormal_factor(sigma, 123 + i, 456 + 31 * i);
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Rng, LognormalZeroSigmaIsExactlyOne) {
  EXPECT_EQ(cu::lognormal_factor(0.0, 1, 2), 1.0);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  double s = 0, s2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = cu::normal_from_keys(7 * i + 1, 13 * i + 5);
    s += z;
    s2 += z * z;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.02);
}

TEST(Table, CsvRoundTrip) {
  cu::Table t("demo");
  t.header({"a", "b"});
  t.row({"1", "2"});
  t.row({"x", cu::Table::num(1.5, 1)});
  EXPECT_EQ(t.csv(), "a,b\n1,2\nx,1.5\n");
}

TEST(Table, RowWidthMismatchThrows) {
  cu::Table t("demo");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::runtime_error);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--alpha=2.5", "--verbose", "--n=42"};
  cu::Options o(4, const_cast<char**>(argv));
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_FALSE(o.has("quiet"));
  EXPECT_DOUBLE_EQ(o.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(o.get_int("n", 0), 42);
  EXPECT_EQ(o.get_int("missing", 7), 7);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(cu::Options(2, const_cast<char**>(argv)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// checksum64: the one checksum behind every framed format
// ---------------------------------------------------------------------------

namespace {

std::uint64_t sum_of(const std::string& s) {
  return cu::checksum64(s.data(), s.size());
}

/// The message of the exception `f` throws, or "" when it does not throw.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Checksum64, MatchesXxh64KnownAnswers) {
  // XXH64 with seed 0, against the reference implementation's digests.
  EXPECT_EQ(sum_of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(sum_of("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(sum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(Checksum64, UnalignedStartHashesTheSameBytes) {
  std::string bytes(300, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(cu::mix64(i) & 0xFF);
  for (std::size_t len : {0u, 7u, 31u, 32u, 33u, 100u, 257u}) {
    const std::string aligned = bytes.substr(0, len);
    for (std::size_t off = 1; off < 8; ++off) {
      std::string shifted(off, 'x');
      shifted += aligned;
      EXPECT_EQ(cu::checksum64(shifted.data() + off, len), sum_of(aligned))
          << "len " << len << " offset " << off;
    }
  }
  // Every single-byte flip of a multi-stripe input changes the digest.
  const std::string base = bytes.substr(0, 100);
  for (std::size_t at = 0; at < base.size(); ++at) {
    std::string flipped = base;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    EXPECT_NE(sum_of(flipped), sum_of(base)) << "flip at " << at;
  }
}

TEST(Checksum64, PreviousFormatsFailByIdentifierNotAsCorrupt) {
  // Every format whose checksum changed bumped its identifier, and every
  // reader checks the identifier before the checksum — so an artifact of
  // the previous format names itself instead of posing as corruption.
  namespace core = critter::core;
  namespace dist = critter::dist;
  namespace net = critter::net;
  namespace tune = critter::tune;

  // Network frames: "CRF1" -> "CRF2".
  std::string frame = net::encode_frame(net::kOk, "payload");
  EXPECT_EQ(frame.substr(0, 4), "CRF2");
  frame[3] = '1';
  net::Frame out;
  EXPECT_NE(error_of([&] { net::decode_frame(frame, out); })
                .find("bad frame magic"),
            std::string::npos);

  // Session-journal records: the full slot's "CRCKPT02" and the log
  // increment's "CRCKINC3" retired into one record, "CRCKREC1".  A slot's
  // identifier is checked before its trailer, a record's before any field.
  tune::Study study = tune::capital_cholesky_study(false);
  study.configs.resize(2);
  const dist::ShardRange range{0, 0, 2};
  dist::ShardCheckpoint ck;
  ck.seq = 1;
  ck.totals.resize(2);
  const std::string record = dist::serialize_record(ck);
  EXPECT_EQ(record.substr(0, 8), "CRCKREC1");
  const std::string slot = dist::seal_slot(record);
  EXPECT_NO_THROW(dist::parse_record(dist::open_slot(slot), study, range));
  std::string old_slot = slot;
  old_slot.replace(0, 8, "CRCKPT02");
  const std::string slot_error =
      error_of([&] { dist::open_slot(old_slot); });
  EXPECT_NE(slot_error.find("bad magic"), std::string::npos) << slot_error;
  std::string old_record = record;
  old_record.replace(0, 8, "CRCKINC3");
  const std::string record_error =
      error_of([&] { dist::parse_record(old_record, study, range); });
  EXPECT_NE(record_error.find("bad magic"), std::string::npos)
      << record_error;

  // Publish manifests: the checksum key moved from "fnv=" to "xxh64=".
  const std::string manifest = core::publish_manifest("artifact");
  EXPECT_NE(manifest.find("\nxxh64="), std::string::npos) << manifest;
  EXPECT_NO_THROW(core::check_publish_manifest(manifest, "artifact", "m"));
  const std::string old_manifest = "bytes=8\nfnv=0123456789abcdef\n";
  EXPECT_NE(error_of([&] {
              core::check_publish_manifest(old_manifest, "artifact", "m");
            }).find("unparsable"),
            std::string::npos);
}
