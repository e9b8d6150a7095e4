// Network subsystem: the frame codec (fuzzed the same way as the binary
// snapshot format in test_stat_store.cc — every truncation point, every
// flipped byte), the blob Store implementations (directory, in-memory, and
// the framed client/server pair, which must agree on semantics and error
// wording), the socket layer's deadline behavior (a dead or silent peer
// throws, never hangs), the tuner protocol's decoders against forged
// lengths and counts, and the servers' connection threads (a closed
// connection keeps none).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fsio.hpp"
#include "net/blob.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/daemon.hpp"

namespace core = critter::core;
namespace net = critter::net;

namespace {

/// Deterministic payload with NULs, high bytes, and enough length that a
/// byte flip in the frame's length field can both shrink and grow it.
std::string fuzz_payload(std::size_t n = 200) {
  std::string p(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<char>((i * 37 + 11) & 0xFF);
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripEveryVerbAndPayloadShape) {
  const std::vector<std::uint32_t> verbs = {
      net::kHello,       net::kOk,           net::kErr,
      net::kBlobPut,     net::kBlobGet,      net::kBlobExists,
      net::kBlobRemove,  net::kBlobPublish,  net::kBlobPublished,
      net::kBlobReadPublished,
      net::kTuneOpen,    net::kTuneAsk,      net::kTuneTell,
      net::kTuneExport,  net::kTuneStatus,   net::kTuneShutdown};
  for (std::uint32_t verb : verbs) {
    EXPECT_TRUE(net::known_verb(verb));
    for (const std::string& payload :
         {std::string(), std::string("x"), fuzz_payload(100 * 1000)}) {
      const std::string bytes = net::encode_frame(verb, payload);
      ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + payload.size());
      net::Frame f;
      const std::size_t consumed = net::decode_frame(bytes, f);
      EXPECT_EQ(consumed, bytes.size());
      EXPECT_EQ(f.verb, verb);
      EXPECT_EQ(f.payload, payload);
    }
  }
  EXPECT_FALSE(net::known_verb(0));
  EXPECT_FALSE(net::known_verb(0x7F));
  // Retired verbs stay unknown: blob append (0x13) and tuner import (0x24).
  EXPECT_FALSE(net::known_verb(0x13));
  EXPECT_FALSE(net::known_verb(0x24));
}

TEST(Frame, ConcatenatedFramesDecodeInSequence) {
  // decode_frame reports its consumption so a stream of frames parses
  // without any out-of-band delimiters.
  const std::string a = net::encode_frame(net::kHello, "first");
  const std::string b = net::encode_frame(net::kOk, fuzz_payload());
  const std::string stream = a + b;
  net::Frame f;
  const std::size_t n1 = net::decode_frame(stream, f);
  EXPECT_EQ(n1, a.size());
  EXPECT_EQ(f.payload, "first");
  const std::size_t n2 = net::decode_frame(stream.substr(n1), f);
  EXPECT_EQ(n2, b.size());
  EXPECT_EQ(f.verb, net::kOk);
}

TEST(Frame, EveryTruncationIsRejected) {
  // A short read anywhere — mid-header or mid-payload — must surface as a
  // clear net error, never a silent partial frame (the stream analogue of
  // the snapshot loader's truncation sweep).
  const std::string bytes = net::encode_frame(net::kTuneTell, fuzz_payload());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::Frame f;
    try {
      net::decode_frame(bytes.substr(0, len), f);
      FAIL() << "truncation at byte " << len << " decoded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("net:"), std::string::npos)
          << "at byte " << len << ": " << e.what();
    }
  }
}

TEST(Frame, EveryByteCorruptionIsRejected) {
  // Flip every byte in turn (XOR 0xFF).  Magic flips fail the stream
  // check, verb flips fall off the whitelist, length flips either overrun
  // the buffer/bound or shrink the payload out from under its checksum,
  // and checksum/payload flips fail checksum64 verification.
  const std::string bytes = net::encode_frame(net::kTuneTell, fuzz_payload());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0xFF);
    net::Frame f;
    EXPECT_THROW(net::decode_frame(bad, f), std::runtime_error)
        << "flipped byte " << at;
  }
}

TEST(Frame, UnknownVerbIsRejectedBeforeThePayload) {
  // encode_frame is a pure transform (servers echo caller verbs), so the
  // whitelist lives in decode: a verb this build does not know desyncs
  // loudly even when length and checksum are self-consistent.
  const std::string bytes = net::encode_frame(0x7F, "payload");
  net::Frame f;
  try {
    net::decode_frame(bytes, f);
    FAIL() << "unknown verb decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown frame verb"),
              std::string::npos)
        << e.what();
  }
}

TEST(Frame, DeclaredLengthAboveTheBoundIsRejectedWithoutWaiting) {
  // A tighter caller bound rejects a bigger (valid) frame up front...
  const std::string bytes = net::encode_frame(net::kOk, fuzz_payload(64));
  net::Frame f;
  try {
    net::decode_frame(bytes, f, /*max_payload=*/16);
    FAIL() << "oversized frame decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
  // ...and a forged header declaring a huge payload fails the header
  // check, not an allocation or a wait for bytes that will never come.
  std::string forged = net::encode_frame(net::kOk, "");
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  std::memcpy(forged.data() + 8, &huge, 8);
  EXPECT_THROW(net::decode_frame(forged, f), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------------

TEST(Socket, ParseAddress) {
  const net::Address a = net::parse_address("127.0.0.1:8080");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  EXPECT_THROW(net::parse_address("nocolon"), std::runtime_error);
  EXPECT_THROW(net::parse_address(":80"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:notaport"), std::runtime_error);
  EXPECT_THROW(net::parse_address("host:70000"), std::runtime_error);
}

TEST(Socket, FramesOverLoopbackAndOrderlyCloseAtABoundary) {
  net::Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&listener] {
    net::Connection c = listener.accept(5.0);
    ASSERT_TRUE(c.valid());
    net::Frame rq;
    while (net::recv_frame_opt(c, rq, 5.0)) {
      std::string reversed(rq.payload.rbegin(), rq.payload.rend());
      net::send_frame(c, net::kOk, reversed, 5.0);
    }
    // recv_frame_opt returned false: the client closed at a frame
    // boundary — the orderly end-of-session signal, not an error.
  });
  net::Connection conn = net::Connection::connect("127.0.0.1",
                                                  listener.port(), 5.0);
  // Nothing sent yet: readable() times out instead of blocking.
  EXPECT_FALSE(conn.readable(0.05));
  for (const std::string& msg : {std::string("abc"), fuzz_payload()}) {
    net::send_frame(conn, net::kHello, msg, 5.0);
    const net::Frame rp = net::recv_frame(conn, 5.0);
    EXPECT_EQ(rp.verb, net::kOk);
    EXPECT_EQ(rp.payload, std::string(msg.rbegin(), msg.rend()));
  }
  conn.close();
  server.join();
}

TEST(Socket, SilentPeerThrowsAtTheDeadlineInsteadOfHanging) {
  net::Listener listener(0);
  std::thread server([&listener] {
    net::Connection c = listener.accept(5.0);
    // Say nothing; just hold the connection until the peer gives up.
    net::Frame f;
    try {
      net::recv_frame(c, 5.0, net::kMaxFramePayload);
    } catch (const std::exception&) {
    }
  });
  net::Connection conn = net::Connection::connect("127.0.0.1",
                                                  listener.port(), 5.0);
  const double t0 = core::monotonic_s();
  EXPECT_THROW(net::recv_frame(conn, 0.2), std::runtime_error);
  EXPECT_LT(core::monotonic_s() - t0, 3.0);
  conn.close();
  server.join();
}

// ---------------------------------------------------------------------------
// Blob stores
// ---------------------------------------------------------------------------

namespace {

/// The Store contract, checked identically against every implementation:
/// plain blobs, the two-step publish, and the failure wording.
void exercise_store(net::Store& store, const std::string& what) {
  EXPECT_FALSE(store.exists("run.txt")) << what;
  EXPECT_THROW(store.get("run.txt"), std::runtime_error) << what;
  store.put("run.txt", "hello");
  EXPECT_TRUE(store.exists("run.txt")) << what;
  EXPECT_EQ(store.get("run.txt"), "hello") << what;
  store.put("run.txt", "rewritten");
  EXPECT_EQ(store.get("run.txt"), "rewritten") << what;

  const std::string payload = fuzz_payload();
  EXPECT_FALSE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_THROW(store.read_published("exchange/s0_r1.snap"),
               std::runtime_error)
      << what;
  store.publish("exchange/s0_r1.snap", payload);
  EXPECT_TRUE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_EQ(store.read_published("exchange/s0_r1.snap"), payload) << what;
  // An empty publish is legal (isolated shards exchange empty deltas).
  store.publish("exchange/s1_r1.snap", "");
  EXPECT_EQ(store.read_published("exchange/s1_r1.snap"), "") << what;

  // remove retires published artifacts (manifest and payload) and plain
  // blobs alike; removing an absent key is the idempotent no-op the
  // exchange-mailbox GC leans on.
  store.remove("exchange/s0_r1.snap");
  EXPECT_FALSE(store.published("exchange/s0_r1.snap")) << what;
  EXPECT_FALSE(store.exists("exchange/s0_r1.snap")) << what;
  EXPECT_THROW(store.read_published("exchange/s0_r1.snap"),
               std::runtime_error)
      << what;
  store.remove("exchange/s0_r1.snap");  // second remove: no-op, no throw
  store.remove("never/was/there");
  store.remove("run.txt");
  EXPECT_FALSE(store.exists("run.txt")) << what;
  // The key is reusable after removal — GC'd rounds do not poison names.
  store.publish("exchange/s0_r1.snap", "again");
  EXPECT_EQ(store.read_published("exchange/s0_r1.snap"), "again") << what;

  // Content is bounded by the transport's frame, not by the key bound: a
  // 2 MiB blob (a default-scale snapshot is already ~0.9 MB) travels whole.
  const std::string big = fuzz_payload(2u << 20);
  store.put("big.bin", big);
  EXPECT_EQ(store.get("big.bin"), big) << what;
  store.publish("exchange/big.snap", big);
  EXPECT_EQ(store.read_published("exchange/big.snap"), big) << what;
  store.remove("big.bin");
  store.remove("exchange/big.snap");
  store.put("run.txt", "rewritten");
}

}  // namespace

TEST(Blob, DirMemAndSocketStoresShareOneContract) {
  const std::string root = core::make_temp_dir("critter_blob_test");
  net::DirStore dir(root);
  exercise_store(dir, "DirStore");

  net::MemStore mem;
  exercise_store(mem, "MemStore");

  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
  exercise_store(client, "BlobClient");
  // The client and its backing store see one namespace.
  EXPECT_EQ(backing.get("run.txt"), "rewritten");
  backing.publish("from_server.snap", "xyz");
  EXPECT_EQ(client.read_published("from_server.snap"), "xyz");
  server.stop();
  core::remove_dir_tree(root);
}

TEST(Blob, WireCountersMeterCompletedTransfers) {
  // The process-wide wire accounting (DESIGN.md §13): both endpoints of
  // this loopback conversation live in this process, so every sent frame
  // is also received here and the counters must mirror exactly.
  net::reset_wire_counters();
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  {
    net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
    client.put("metered", std::string(1000, 'x'));
    EXPECT_EQ(client.get("metered"), std::string(1000, 'x'));
  }
  server.stop();
  const net::WireCounters wc = net::wire_counters();
  // Handshake + put + get = three request/reply pairs minimum.
  EXPECT_GE(wc.frames_sent, 6u);
  EXPECT_EQ(wc.frames_sent, wc.frames_received);
  EXPECT_EQ(wc.bytes_sent, wc.bytes_received);
  EXPECT_GT(wc.bytes_sent, 2000u);  // the kilobyte payload went both ways
  net::reset_wire_counters();
  EXPECT_EQ(net::wire_counters().bytes_sent, 0u);
  EXPECT_EQ(net::wire_counters().frames_received, 0u);
}

TEST(Blob, CorruptedPublishedPayloadIsAStaleManifest) {
  // Overwrite a published payload behind the manifest's back: the reader
  // must report a stale manifest (size/checksum64 mismatch), exactly like the
  // run-directory protocol — never return the corrupted bytes.
  const std::string root = core::make_temp_dir("critter_blob_stale");
  net::DirStore dir(root);
  dir.publish("delta.snap", fuzz_payload());
  core::write_file(root + "/delta.snap", "corrupted body");
  try {
    dir.read_published("delta.snap");
    FAIL() << "stale payload read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale manifest"),
              std::string::npos)
        << e.what();
  }
  core::remove_dir_tree(root);
}

TEST(Blob, RemoteErrorsCarryTheStoreWordingAcrossTheWire) {
  // A remote failure must read like the local one — the dist layer keys
  // retry/degrade decisions off these messages.
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::BlobClient client("127.0.0.1", server.port(), 5.0, 5.0);
  try {
    client.get("absent.txt");
    FAIL() << "missing blob read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open absent.txt"),
              std::string::npos)
        << e.what();
  }
  backing.publish("torn.snap", "payload");
  backing.put("torn.snap", "other bytes");  // invalidates the manifest
  try {
    client.read_published("torn.snap");
    FAIL() << "stale remote publish read successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale manifest"),
              std::string::npos)
        << e.what();
  }
  server.stop();
}

TEST(Blob, WrongServiceHandshakeIsRefused) {
  // A tuner (or any non-blob) stream pointed at a blob server must be
  // turned away at hello, before any verb is interpreted.
  net::MemStore backing;
  net::BlobServer server(backing, 0);
  net::Connection conn =
      net::Connection::connect("127.0.0.1", server.port(), 5.0);
  net::send_frame(conn, net::kHello, "critter-tune/1", 5.0);
  const net::Frame rp = net::recv_frame(conn, 5.0);
  EXPECT_EQ(rp.verb, net::kErr);
  EXPECT_NE(rp.payload.find("bad handshake"), std::string::npos);
  conn.close();
  server.stop();
}

// ---------------------------------------------------------------------------
// Tuner protocol decoders against forged lengths and counts
// ---------------------------------------------------------------------------

#include <sys/resource.h>

#include "serve/protocol.hpp"

namespace serve = critter::serve;
namespace tune = critter::tune;

namespace {

/// Process peak resident set size (KiB on Linux).
long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// `payload` with its trailing i32 replaced by `v` (every forged field
/// below is the last length of a valid encoding).
std::string with_last_i32(std::string payload, std::int32_t v) {
  std::memcpy(payload.data() + payload.size() - 4, &v, 4);
  return payload;
}

/// `decode` must throw, and its error must name `verb`.
template <class Decode>
void expect_rejected(Decode&& decode, const std::string& verb,
                     const std::string& what) {
  try {
    decode();
    ADD_FAILURE() << what << " decoded successfully";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(verb), std::string::npos)
        << what << ": " << e.what();
  }
}

}  // namespace

TEST(TuneProtocol, ForgedLengthsAndCountsAreRejectedBeforeSizingABuffer) {
  // The daemon decodes OPEN and TELL straight from client frames,
  // and the client decodes ASK replies: a tiny payload that declares a
  // 1 GiB byte field or a 2^20-entry batch must fail on the bytes actually
  // present, not after allocating what it claims.
  constexpr std::int32_t kGiB = 1 << 30;
  constexpr std::int32_t kCount = 1 << 20;
  const long rss_before = peak_rss_kib();

  const std::string open = serve::encode_open({"s", "manifest", "", ""});
  const std::string open_warm =
      with_last_i32(open.substr(0, open.size() - 4), kGiB);
  expect_rejected([&] { serve::decode_open(open_warm); }, "tune open",
                  "OPEN warm");
  const std::string open_prior = with_last_i32(open, kGiB);
  expect_rejected([&] { serve::decode_open(open_prior); }, "tune open",
                  "OPEN prior");

  serve::AskReply ask;
  ask.batch = {0};
  const std::string reply = serve::encode_ask_reply(ask);
  std::string ask_count = reply;
  std::memcpy(ask_count.data() + 1, &kCount, 4);  // after the done byte
  expect_rejected([&] { serve::decode_ask_reply(ask_count); },
                  "tune ask reply", "ASK reply batch");
  const std::string ask_state = with_last_i32(reply, kGiB);
  expect_rejected([&] { serve::decode_ask_reply(ask_state); },
                  "tune ask reply", "ASK reply state");

  // The daemon reads a TELL in two steps through one reader named for the
  // verb: the session name, then (once the session's study is resolved)
  // the body.
  tune::Study study;
  study.configs.resize(1);
  serve::TellRequest tell;
  tell.session = "s";
  tell.batch = {0};
  tell.outcomes.resize(1);
  tell.totals.resize(1);
  const std::string told = serve::encode_tell(tell);
  const auto decode_tell = [&study](const std::string& payload) {
    core::WireReader r{payload, "tune tell"};
    serve::decode_tell_session(r);
    serve::TellRequest rq;
    serve::decode_tell_body(r, study, &rq);
  };
  ASSERT_NO_THROW(decode_tell(told));
  std::string tell_count = told;
  std::memcpy(tell_count.data() + 4 + 1, &kCount, 4);  // after the session
  expect_rejected([&] { decode_tell(tell_count); }, "tune tell",
                  "TELL batch");
  const std::string tell_state = with_last_i32(told, kGiB);
  expect_rejected([&] { decode_tell(tell_state); }, "tune tell",
                  "TELL state");

  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024)
      << "a forged length or count sized a buffer before it was checked";
}

// ---------------------------------------------------------------------------
// Servers: a closed connection leaves nothing behind
// ---------------------------------------------------------------------------

namespace {

/// Lines of /proc/self/maps.  Every thread stack is a mapping plus its
/// guard page, so a finished connection thread nobody joined shows here.
int mapping_count() {
  std::ifstream maps("/proc/self/maps");
  int n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

}  // namespace

TEST(Server, AClosedConnectionLeavesNothingBehind) {
  // Both services, 200 sequential connections each: hello, one request,
  // close.  A server that kept each finished connection's thread until it
  // stops would hold 200 stacks (two mappings each) here.
  net::MemStore backing;
  net::BlobServer blob(backing, 0);
  const std::string dir = core::make_temp_dir("critter_server_threads");
  serve::TunerDaemon daemon({dir});
  struct Input {
    const char* name;
    std::function<void()> connect_once;
  };
  const Input inputs[] = {
      {"blob server",
       [&blob] {
         net::BlobClient client("127.0.0.1", blob.port(), 5.0, 5.0);
         EXPECT_FALSE(client.exists("run.txt"));
       }},
      {"tuner daemon",
       [&daemon] {
         net::Connection conn =
             net::Connection::connect("127.0.0.1", daemon.port(), 5.0);
         net::send_frame(conn, net::kHello, serve::kTuneService, 5.0);
         EXPECT_EQ(net::recv_frame(conn, 5.0).verb, net::kOk);
         net::send_frame(conn, net::kTuneStatus,
                         serve::encode_session_ref("none"), 5.0);
         EXPECT_EQ(net::recv_frame(conn, 5.0).verb, net::kErr);
       }},
  };
  for (const Input& in : inputs) {
    // The first few dozen threads map memory that later threads reuse:
    // malloc arenas, and under TSan the traces it keeps of recently
    // finished threads.  Connect that many first, so that only what a
    // connection keeps is counted.
    for (int i = 0; i < 50; ++i) in.connect_once();
    const int before = mapping_count();
    for (int i = 0; i < 200; ++i) in.connect_once();
    const double deadline = core::monotonic_s() + 2.0;
    int after = mapping_count();
    while (after > before + 20 && core::monotonic_s() < deadline) {
      core::sleep_ms(50);
      after = mapping_count();
    }
    EXPECT_LE(after, before + 20)
        << in.name << ": " << before << " mappings before the connections";
  }
  blob.stop();
  daemon.stop();
  core::remove_dir_tree(dir);
}
