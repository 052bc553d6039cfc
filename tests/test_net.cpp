// Tests for the multi-process solver service (src/net): wire-protocol
// round-trip and fuzz/robustness properties, the framed TCP connection, the
// socket transport's mailbox semantics, and the control plane -- a BSP
// multi-process solve over localhost bitwise-identical to the in-process
// oracle, free-running convergence, and crash recovery (a worker dropping
// its connection mid-solve must trigger dead-peer detection and Criterion-2
// recovery, never a deadlock).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "amg/serialize.hpp"
#include "mesh/problems.hpp"
#include "net/cluster.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "net/workerd.hpp"
#include "shard/solver.hpp"
#include "sparse/vec.hpp"
#include "telemetry/sink.hpp"
#include "util/rng.hpp"

namespace asyncmg {
namespace {

struct Fixture {
  explicit Fixture(int m = 8) : Fixture(make_laplace_7pt(m).a) {}
  explicit Fixture(CsrMatrix a) {
    MgOptions mo;
    mo.smoother.type = SmootherType::kWeightedJacobi;
    mo.smoother.omega = 0.9;
    setup = std::make_unique<MgSetup>(std::move(a), mo);
    ao.kind = AdditiveKind::kMultadd;
    Rng rng(31);
    b = random_vector(static_cast<std::size_t>(setup->a(0).rows()), rng);
  }
  std::unique_ptr<MgSetup> setup;
  AdditiveOptions ao;
  Vector b;
};

HaloFrameMsg random_halo(Rng& rng, WireWidth w, std::size_t len) {
  HaloFrameMsg m;
  m.from = static_cast<std::uint32_t>(rng.next_below(8));
  m.to = static_cast<std::uint32_t>((m.from + 1 + rng.next_below(7)) % 8);
  m.tag = static_cast<std::uint8_t>(rng.next_below(kNumHaloTags));
  m.width = w;
  m.seq = rng.next_u64();
  m.data.resize(len);
  for (double& v : m.data) {
    v = rng.uniform(-1e6, 1e6);
    if (w == WireWidth::kF32) v = static_cast<double>(static_cast<float>(v));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Wire protocol: round trips
// ---------------------------------------------------------------------------

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.f32(3.14159f);
  w.str("halo");
  w.vec({1.0, -2.5, 1e-300}, WireWidth::kF64);

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.f32(), 3.14159f);
  EXPECT_EQ(r.str(), "halo");
  const std::vector<double> v = r.vec(WireWidth::kF64);
  EXPECT_EQ(v, (std::vector<double>{1.0, -2.5, 1e-300}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Wire, HaloFramesRoundTripBitExact) {
  // Property: random halo frames encode -> frame -> decode to bit-identical
  // payloads at fp64; at fp32 the fp32-rounded values round-trip exactly.
  Rng rng(1234);
  for (int it = 0; it < 200; ++it) {
    const WireWidth w = it % 2 == 0 ? WireWidth::kF64 : WireWidth::kF32;
    const HaloFrameMsg m = random_halo(rng, w, rng.next_below(64));
    const std::vector<std::uint8_t> frame =
        encode_frame(MsgType::kHaloFrame, encode_halo_frame(m));

    const FrameHeader h = decode_frame_header(frame.data(), frame.size());
    ASSERT_EQ(h.type, MsgType::kHaloFrame);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + h.payload_len);
    ASSERT_NO_THROW(
        verify_frame_payload(h, frame.data() + kFrameHeaderBytes));
    const HaloFrameMsg out = decode_halo_frame(std::vector<std::uint8_t>(
        frame.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        frame.end()));
    EXPECT_EQ(out.from, m.from);
    EXPECT_EQ(out.to, m.to);
    EXPECT_EQ(out.tag, m.tag);
    EXPECT_EQ(out.width, m.width);
    EXPECT_EQ(out.seq, m.seq);
    ASSERT_EQ(out.data.size(), m.data.size());
    for (std::size_t i = 0; i < m.data.size(); ++i) {
      EXPECT_EQ(out.data[i], m.data[i]);  // bitwise (values already rounded)
    }
  }
}

TEST(Wire, SolveRequestRoundTrip) {
  SolveRequestMsg m;
  m.shard = 2;
  m.num_shards = 4;
  m.bsp = 0;
  m.width = WireWidth::kF32;
  m.t_max = 17;
  m.max_lag = 5;
  m.seed = 99;
  m.additive_kind = 2;
  m.symmetrized_lambda = 1;
  m.afacx_s1 = 2;
  m.afacx_s2 = 3;
  m.smoother_type = 1;
  m.smoother_omega = 0.5;
  m.smoother_blocks = 8;
  m.max_dense_coarse = 1234;
  m.crash_after = 7;
  m.setup_key = 0xFEDCBA9876543210ull;
  m.hierarchy = "not a real hierarchy\n\0binary-ish";
  m.b = {1.0, 2.0, 3.0};
  m.x0 = {0.0, -1.0, 0.5};
  const SolveRequestMsg out = decode_solve_request(encode_solve_request(m));
  EXPECT_EQ(out.shard, m.shard);
  EXPECT_EQ(out.num_shards, m.num_shards);
  EXPECT_EQ(out.bsp, m.bsp);
  EXPECT_EQ(out.width, m.width);
  EXPECT_EQ(out.t_max, m.t_max);
  EXPECT_EQ(out.max_lag, m.max_lag);
  EXPECT_EQ(out.seed, m.seed);
  EXPECT_EQ(out.additive_kind, m.additive_kind);
  EXPECT_EQ(out.symmetrized_lambda, m.symmetrized_lambda);
  EXPECT_EQ(out.afacx_s1, m.afacx_s1);
  EXPECT_EQ(out.afacx_s2, m.afacx_s2);
  EXPECT_EQ(out.smoother_type, m.smoother_type);
  EXPECT_EQ(out.smoother_omega, m.smoother_omega);
  EXPECT_EQ(out.smoother_blocks, m.smoother_blocks);
  EXPECT_EQ(out.max_dense_coarse, m.max_dense_coarse);
  EXPECT_EQ(out.crash_after, m.crash_after);
  EXPECT_EQ(out.setup_key, m.setup_key);
  EXPECT_EQ(out.hierarchy, m.hierarchy);
  EXPECT_EQ(out.b, m.b);
  EXPECT_EQ(out.x0, m.x0);
}

TEST(Wire, ControlMessagesRoundTrip) {
  HelloMsg hello;
  hello.role = WireRole::kWorker;
  hello.name = "w-3";
  const HelloMsg hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.role, hello.role);
  EXPECT_EQ(hello2.name, hello.name);

  HelloAckMsg ack;
  ack.shard = 3;
  ack.num_shards = 5;
  const HelloAckMsg ack2 = decode_hello_ack(encode_hello_ack(ack));
  EXPECT_EQ(ack2.shard, 3u);
  EXPECT_EQ(ack2.num_shards, 5u);

  ProgressMsg pr{2, 41};
  const ProgressMsg pr2 = decode_progress(encode_progress(pr));
  EXPECT_EQ(pr2.shard, 2u);
  EXPECT_EQ(pr2.commits, 41u);

  HeartbeatMsg hb{1, 7, 99};
  const HeartbeatMsg hb2 = decode_heartbeat(encode_heartbeat(hb));
  EXPECT_EQ(hb2.shard, 1u);
  EXPECT_EQ(hb2.commits, 7u);
  EXPECT_EQ(hb2.seq, 99u);

  const PeerDeadMsg pd2 = decode_peer_dead(encode_peer_dead({4}));
  EXPECT_EQ(pd2.shard, 4u);

  SolveDoneMsg dm;
  dm.shard = 1;
  dm.corrections = 20;
  dm.reads_dropped = 2;
  dm.killed = 1;
  dm.frames_sent = 100;
  dm.frames_dropped = 3;
  dm.bytes_sent = 4096;
  dm.bytes_received = 8192;
  dm.x_block = {0.25, -0.75};
  const SolveDoneMsg dm2 = decode_solve_done(encode_solve_done(dm));
  EXPECT_EQ(dm2.corrections, 20u);
  EXPECT_EQ(dm2.killed, 1);
  EXPECT_EQ(dm2.frames_dropped, 3u);
  EXPECT_EQ(dm2.x_block, dm.x_block);

  const StatsResponseMsg st2 =
      decode_stats_response(encode_stats_response({"{\"x\":1}"}));
  EXPECT_EQ(st2.json, "{\"x\":1}");

  HelloMsg warm = hello;
  warm.setup_keys = {0x0123456789ABCDEFull, 7};
  const HelloMsg warm2 = decode_hello(encode_hello(warm));
  EXPECT_EQ(warm2.name, warm.name);
  EXPECT_EQ(warm2.setup_keys, warm.setup_keys);
}

TEST(Wire, SetupKeySurvivesSerializationAndNamesTheSetup) {
  // A worker recomputes the key over the hierarchy it loaded, so the key
  // must survive the serialization round trip; and it must change with the
  // operator and with every smoother field the worker builds its setup from.
  Fixture f;
  SolveRequestMsg req;
  req.smoother_type =
      static_cast<std::uint8_t>(f.setup->options().smoother.type);
  req.smoother_omega = f.setup->options().smoother.omega;
  const std::uint64_t key = setup_key(f.setup->hierarchy(), req);
  const Hierarchy loaded =
      load_hierarchy_string(save_hierarchy_string(f.setup->hierarchy()));
  EXPECT_EQ(setup_key(loaded, req), key);

  SolveRequestMsg other = req;
  other.smoother_type = static_cast<std::uint8_t>(SmootherType::kL1Jacobi);
  EXPECT_NE(setup_key(loaded, other), key);
  other = req;
  other.smoother_omega = 0.8;
  EXPECT_NE(setup_key(loaded, other), key);
  other = req;
  other.smoother_blocks = 2;
  EXPECT_NE(setup_key(loaded, other), key);
  other = req;
  other.max_dense_coarse = 17;
  EXPECT_NE(setup_key(loaded, other), key);
  Fixture g(6);
  EXPECT_NE(setup_key(g.setup->hierarchy(), req), key);
}

TEST(Wire, SetupKeyTellsTwoSignFlipsApart) {
  // Word-wise FNV carries a difference confined to the top bit of a word
  // through every later multiply unchanged, so two sign flips in one value
  // array would cancel. The key must still tell such operators apart: a
  // warm worker trusts it alone.
  Fixture f;
  const Hierarchy& h = f.setup->hierarchy();
  SolveRequestMsg req;
  const std::uint64_t key = setup_key(h, req);
  const CsrMatrix& a = h.matrix(0);
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const std::pair<std::size_t, std::size_t> flips[] = {
      {0, 1}, {3, 10}, {0, nnz - 1}};
  for (const auto& [i, j] : flips) {
    std::vector<double> v(a.values().begin(), a.values().end());
    v[i] = -v[i];
    v[j] = -v[j];
    std::vector<AmgLevel> levels;
    for (std::size_t k = 0; k < h.num_levels(); ++k) {
      levels.push_back(h.level(k));
    }
    levels[0].a = CsrMatrix::from_csr(
        a.rows(), a.cols(),
        std::vector<Index>(a.row_ptr().begin(), a.row_ptr().end()),
        std::vector<Index>(a.col_idx().begin(), a.col_idx().end()),
        std::move(v));
    const Hierarchy flipped = Hierarchy::from_levels(std::move(levels));
    EXPECT_NE(setup_key(flipped, req), key) << "flips " << i << ", " << j;
  }
}

// ---------------------------------------------------------------------------
// Wire protocol: fuzz / robustness (run under ASan+UBSan in CI)
// ---------------------------------------------------------------------------

TEST(WireFuzz, TruncatedPayloadsAlwaysThrow) {
  // Every strict prefix of a valid message payload must throw WireError --
  // never read out of bounds, never return garbage silently.
  Rng rng(77);
  for (int it = 0; it < 50; ++it) {
    const HaloFrameMsg m = random_halo(
        rng, it % 2 == 0 ? WireWidth::kF64 : WireWidth::kF32, rng.next_below(16));
    const std::vector<std::uint8_t> payload = encode_halo_frame(m);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> trunc(payload.begin(),
                                            payload.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    cut));
      EXPECT_THROW(decode_halo_frame(trunc), WireError) << "cut=" << cut;
    }
  }
  // Same for the big composite message, full and key-only, and a hello
  // that lists setup keys.
  SolveRequestMsg req;
  req.setup_key = 0x5EEDull;
  req.hierarchy = "hier";
  req.b = {1.0, 2.0};
  req.x0 = {0.0, 0.0};
  SolveRequestMsg key_only = req;
  key_only.hierarchy.clear();
  for (const SolveRequestMsg& m : {req, key_only}) {
    const std::vector<std::uint8_t> payload = encode_solve_request(m);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> trunc(
          payload.begin(),
          payload.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(decode_solve_request(trunc), WireError);
    }
  }
  HelloMsg hello;
  hello.name = "w1";
  hello.setup_keys = {0x5EEDull, 0xBEEFull};
  const std::vector<std::uint8_t> warm = encode_hello(hello);
  for (std::size_t cut = 0; cut < warm.size(); ++cut) {
    const std::vector<std::uint8_t> trunc(
        warm.begin(), warm.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_hello(trunc), WireError) << "cut=" << cut;
  }
}

TEST(WireFuzz, TrailingBytesRejected) {
  std::vector<std::uint8_t> payload = encode_progress({1, 2});
  payload.push_back(0);
  EXPECT_THROW(decode_progress(payload), WireError);
}

TEST(WireFuzz, HostileLengthPrefixesRejected) {
  // A length prefix larger than the remaining bytes must throw before any
  // allocation explosion or OOB read.
  WireWriter w;
  w.u32(0xFFFFFFFFu);  // str/vec length
  EXPECT_THROW(
      {
        WireReader r(w.bytes());
        (void)r.str();
      },
      WireError);
  EXPECT_THROW(
      {
        WireReader r(w.bytes());
        (void)r.vec(WireWidth::kF64);
      },
      WireError);
}

TEST(WireFuzz, CorruptedFramesDetected) {
  // Flip each single bit of a framed message: the decode pipeline (header
  // validation -> length check -> checksum -> typed decode) must throw for
  // every flip outside the type byte, and must never crash for any flip.
  // The corpus holds a halo frame, a key-only solve request and a hello
  // that lists two setup keys, each decoded as the type it was sent as.
  Rng rng(5);
  SolveRequestMsg key_only;
  key_only.setup_key = rng.next_u64();
  key_only.b = {1.0, -2.0, 0.5};
  key_only.x0 = {0.0, 0.25, 0.0};
  HelloMsg hello;
  hello.name = "w1";
  hello.setup_keys = {rng.next_u64(), rng.next_u64()};
  const std::vector<std::pair<MsgType, std::vector<std::uint8_t>>> corpus = {
      {MsgType::kHaloFrame,
       encode_halo_frame(random_halo(rng, WireWidth::kF64, 9))},
      {MsgType::kSolveRequest, encode_solve_request(key_only)},
      {MsgType::kHello, encode_hello(hello)},
  };
  for (const auto& [sent_as, payload] : corpus) {
    const std::vector<std::uint8_t> frame = encode_frame(sent_as, payload);
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> f = frame;
        f[byte] = static_cast<std::uint8_t>(f[byte] ^ (1u << bit));
        bool threw = false;
        try {
          const FrameHeader h = decode_frame_header(f.data(), f.size());
          if (f.size() != kFrameHeaderBytes + h.payload_len) {
            throw WireError("length mismatch");  // reassembly-layer check
          }
          verify_frame_payload(h, f.data() + kFrameHeaderBytes);
          const std::vector<std::uint8_t> p(
              f.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
              f.end());
          if (sent_as == MsgType::kHaloFrame) {
            (void)decode_halo_frame(p);
          } else if (sent_as == MsgType::kSolveRequest) {
            (void)decode_solve_request(p);
          } else {
            (void)decode_hello(p);
          }
        } catch (const WireError&) {
          threw = true;
        }
        if (byte != 5) {  // type byte: a flip may yield another valid type
          EXPECT_TRUE(threw) << msg_type_name(sent_as) << " byte " << byte
                             << " bit " << bit;
        }
      }
    }
  }
}

TEST(WireFuzz, VersionOneFrameRejected) {
  // A version-1 peer hashes payloads byte by byte and expects the hierarchy
  // in every request: its frames are refused at the header. So are a
  // version-3 peer's, whose halo frames carry boundary slices instead of
  // owned blocks.
  std::vector<std::uint8_t> frame =
      encode_frame(MsgType::kProgress, encode_progress({1, 2}));
  ASSERT_EQ(frame[4], kWireVersion);
  ASSERT_NO_THROW(decode_frame_header(frame.data(), frame.size()));
  frame[4] = 1;
  EXPECT_THROW(decode_frame_header(frame.data(), frame.size()), WireError);
  frame[4] = 3;
  EXPECT_THROW(decode_frame_header(frame.data(), frame.size()), WireError);
}

// ---------------------------------------------------------------------------
// Framed TCP connection
// ---------------------------------------------------------------------------

TEST(NetSocket, FrameConnReassemblesAcrossSegments) {
  ListenSocket listener(0);
  ASSERT_GT(listener.port(), 0);

  std::unique_ptr<FrameConn> server;
  std::thread accepter([&] {
    server = std::make_unique<FrameConn>(listener.accept(5000));
  });
  FrameConn client(connect_tcp("127.0.0.1", listener.port(), 5000));
  accepter.join();
  ASSERT_TRUE(server != nullptr && server->open());

  // Frames from tiny to well past one TCP segment, interleaved both ways.
  Rng rng(9);
  for (const std::size_t len : {0ul, 1ul, 100ul, 70000ul, 300000ul}) {
    const HaloFrameMsg m = random_halo(rng, WireWidth::kF64, len);
    ASSERT_TRUE(client.send_frame(MsgType::kHaloFrame, encode_halo_frame(m)));
    MsgType type{};
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(server->recv_frame(type, payload, 5000), RecvStatus::kFrame);
    ASSERT_EQ(type, MsgType::kHaloFrame);
    const HaloFrameMsg out = decode_halo_frame(payload);
    EXPECT_EQ(out.seq, m.seq);
    ASSERT_EQ(out.data.size(), m.data.size());
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(out.data[i], m.data[i]);

    ASSERT_TRUE(server->send_frame(MsgType::kHeartbeat,
                                   encode_heartbeat({1, 2, m.seq})));
    ASSERT_EQ(client.recv_frame(type, payload, 5000), RecvStatus::kFrame);
    EXPECT_EQ(type, MsgType::kHeartbeat);
    EXPECT_EQ(decode_heartbeat(payload).seq, m.seq);
  }
  EXPECT_GT(client.bytes_sent(), 0u);
  EXPECT_EQ(client.frames_sent(), 5u);
  EXPECT_EQ(server->frames_received(), 5u);

  // Orderly close surfaces as kClosed, not an error.
  client.close();
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(server->recv_frame(type, payload, 5000), RecvStatus::kClosed);
}

// ---------------------------------------------------------------------------
// SocketTransport mailboxes + NetPeerBoard
// ---------------------------------------------------------------------------

struct ConnPair {
  ConnPair() : listener(0) {
    std::thread accepter(
        [&] { a = std::make_unique<FrameConn>(listener.accept(5000)); });
    b = std::make_unique<FrameConn>(
        connect_tcp("127.0.0.1", listener.port(), 5000));
    accepter.join();
  }
  ListenSocket listener;
  std::unique_ptr<FrameConn> a, b;
};

TEST(NetTransport, MailboxFifoAndNewestWins) {
  ConnPair pair;
  SocketTransportOptions sto;
  sto.shard = 0;
  sto.num_shards = 3;
  sto.mailbox_capacity = 2;
  sto.conn = pair.a.get();
  SocketTransport t(sto);

  auto frame = [](std::uint64_t seq) {
    HaloFrameMsg m;
    m.from = 1;
    m.to = 0;
    m.tag = 0;
    m.seq = seq;
    m.data = {static_cast<double>(seq)};
    return m;
  };

  // FIFO: recv_next pops oldest first.
  t.deliver(frame(1));
  t.deliver(frame(2));
  HaloPacket p;
  ASSERT_TRUE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 1u);
  ASSERT_TRUE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 2u);
  EXPECT_FALSE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));

  // Newest wins: recv_latest takes the back and clears.
  t.deliver(frame(3));
  t.deliver(frame(4));
  ASSERT_TRUE(t.recv_latest(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 4u);
  EXPECT_FALSE(t.recv_latest(0, 1, HaloTag::kBoundaryX, p));

  // Overflow evicts the OLDEST (capacity 2) and counts a drop.
  t.deliver(frame(5));
  t.deliver(frame(6));
  t.deliver(frame(7));
  EXPECT_EQ(t.packets_dropped(), 1u);
  ASSERT_TRUE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 6u);

  // Misaddressed / malformed deliveries are counted, never applied.
  const std::uint64_t dropped = t.packets_dropped();
  HaloFrameMsg bad = frame(8);
  bad.to = 2;  // not our shard
  t.deliver(bad);
  bad = frame(9);
  bad.from = 99;  // out of range
  t.deliver(bad);
  EXPECT_EQ(t.packets_dropped(), dropped + 2);

  // send() writes a decodable frame to the wire.
  HaloPacket out;
  out.seq = 42;
  out.data = {1.5, -2.5};
  ASSERT_TRUE(t.send(0, 1, HaloTag::kBoundaryX, std::move(out)));
  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(pair.b->recv_frame(type, payload, 5000), RecvStatus::kFrame);
  ASSERT_EQ(type, MsgType::kHaloFrame);
  const HaloFrameMsg got = decode_halo_frame(payload);
  EXPECT_EQ(got.from, 0u);
  EXPECT_EQ(got.to, 1u);
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.data, (std::vector<double>{1.5, -2.5}));
}

TEST(NetTransport, LengthMismatchedFramesDropped) {
  // When the plan-derived payload lengths are configured, deliver() must
  // drop any frame whose length disagrees -- a wrong-sized block off the
  // wire can never reach the solver's copy loop (which would read or write
  // out of bounds).
  ConnPair pair;
  SocketTransportOptions sto;
  sto.shard = 0;
  sto.num_shards = 2;
  sto.conn = pair.a.get();
  sto.expect_boundary = {0, 5};  // peer 1 owns 5 rows
  SocketTransport t(sto);

  HaloFrameMsg m;
  m.from = 1;
  m.to = 0;
  m.seq = 1;
  m.tag = static_cast<std::uint8_t>(HaloTag::kBoundaryX);
  m.data = {1.0, 2.0};  // short: 2 != 5 owned rows
  t.deliver(m);
  m.data = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};  // long: 7 != 5 owned rows
  t.deliver(m);
  EXPECT_EQ(t.packets_dropped(), 2u);
  HaloPacket p;
  EXPECT_FALSE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));

  // Exact lengths pass through untouched.
  m.data = {1.0, 2.0, 3.0, 4.0, 5.0};
  t.deliver(m);
  m.seq = 2;
  t.deliver(m);
  ASSERT_TRUE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 1u);
  EXPECT_EQ(p.data.size(), 5u);
  ASSERT_TRUE(t.recv_next(0, 1, HaloTag::kBoundaryX, p));
  EXPECT_EQ(p.seq, 2u);
  EXPECT_EQ(p.data.size(), 5u);
  EXPECT_EQ(t.packets_dropped(), 2u);

  // Mis-sized expectation vectors are rejected at construction.
  sto.expect_boundary = {0};
  EXPECT_THROW(SocketTransport bad(sto), std::invalid_argument);
}

TEST(NetTransport, PeerBoardPublishesAndApplies) {
  ConnPair pair;
  NetPeerBoard board(3, 0, pair.a.get());

  board.publish_commits(0, 5);
  EXPECT_EQ(board.commits(0), 5);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(pair.b->recv_frame(type, payload, 5000), RecvStatus::kFrame);
  ASSERT_EQ(type, MsgType::kProgress);
  const ProgressMsg m = decode_progress(payload);
  EXPECT_EQ(m.shard, 0u);
  EXPECT_EQ(m.commits, 5u);

  board.apply_progress({1, 9});
  EXPECT_EQ(board.commits(1), 9);
  EXPECT_FALSE(board.dead(2));
  board.apply_dead(2);
  EXPECT_TRUE(board.dead(2));
  board.apply_dead(0);  // self: ignored
  EXPECT_FALSE(board.dead(0));
}

// ---------------------------------------------------------------------------
// Multi-process control plane (daemons in threads, real TCP on loopback)
// ---------------------------------------------------------------------------

struct DaemonSet {
  explicit DaemonSet(std::size_t n, std::size_t setup_cache_entries =
                                        WorkerDaemonOptions{}
                                            .setup_cache_entries) {
    for (std::size_t i = 0; i < n; ++i) {
      WorkerDaemonOptions wo;
      wo.port = 0;
      wo.name = std::string(1, 'w') + std::to_string(i);
      wo.setup_cache_entries = setup_cache_entries;
      daemons.push_back(std::make_unique<WorkerDaemon>(wo));
      endpoints.push_back({"127.0.0.1", daemons.back()->port()});
    }
    for (auto& d : daemons) {
      threads.emplace_back([p = d.get()] { p->run(); });
    }
  }
  ~DaemonSet() {
    for (auto& d : daemons) d->request_stop();
    for (std::thread& t : threads) t.join();
  }
  std::vector<std::unique_ptr<WorkerDaemon>> daemons;
  std::vector<Endpoint> endpoints;
  std::vector<std::thread> threads;
};

TEST(NetCluster, BspSolveMatchesInProcessOracleBitwise) {
  // The acceptance gate: a BSP sharded solve across worker processes over
  // localhost TCP is bitwise identical to the in-process ChannelTransport
  // oracle (which is itself bitwise equal to the 1-shard scripted sync
  // run). Workers rebuild the setup from the serialized hierarchy, so this
  // also pins the serialize -> rebuild -> solve chain end to end.
  Fixture f;
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.t_max = 8;
  so.num_shards = 1;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x1(f.b.size(), 0.0);
  const ShardResult r1 = oracle.solve(f.b, x1);

  for (const std::size_t shards : {2u, 4u}) {
    DaemonSet fleet(shards);
    ClusterOptions co;
    co.endpoints = fleet.endpoints;
    ClusterCoordinator coordinator(co);
    ClusterSolveOptions cso;
    cso.bsp = true;
    cso.t_max = 8;
    cso.additive = f.ao;
    Vector x(f.b.size(), 0.0);
    const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
    EXPECT_TRUE(r.dead_workers.empty());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], x1[i]) << shards << " shards, row " << i;
    }
    EXPECT_EQ(r.final_rel_res, r1.final_rel_res);
    for (int c : r.corrections) EXPECT_EQ(c, cso.t_max);
    EXPECT_GT(r.frames_relayed, 0u);
    EXPECT_GT(r.bytes_received, 0u);
    const std::string json = r.to_json();
    EXPECT_NE(json.find("\"frames_relayed\""), std::string::npos);
    EXPECT_NE(json.find("\"dead_workers\":[]"), std::string::npos);
  }
}

TEST(NetCluster, FreeRunningSolveConverges) {
  // Free-running across processes: no round barrier, stale views allowed;
  // convergence must stay within the PR 6 error-norm discipline (bounded
  // degradation vs the synchronous oracle, same bound the in-process
  // free-running test uses).
  Fixture f;
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.t_max = 12;
  so.num_shards = 1;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x1(f.b.size(), 0.0);
  const ShardResult r1 = oracle.solve(f.b, x1);

  DaemonSet fleet(3);
  ClusterOptions co;
  co.endpoints = fleet.endpoints;
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = false;
  cso.t_max = 12;
  cso.max_lag = 3;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
  EXPECT_TRUE(r.dead_workers.empty());
  for (int c : r.corrections) EXPECT_EQ(c, cso.t_max);
  EXPECT_LT(r.final_rel_res, std::max(r1.final_rel_res * 100.0, 1e-6));
}

TEST(NetCluster, WorkerCrashMidSolveRecovers) {
  // Criterion-2 across processes: worker 1 drops its connection after 3
  // corrections (the deterministic SIGKILL stand-in). The coordinator must
  // detect the dead peer, broadcast kPeerDead, and the survivors must
  // finish all their rounds with the dead shard's rows frozen -- bounded
  // residual, no deadlock (the test completing IS the no-deadlock gate,
  // backstopped by the ctest timeout).
  Fixture f;
  DaemonSet fleet(3);
  ClusterOptions co;
  co.endpoints = fleet.endpoints;
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = 10;
  cso.additive = f.ao;
  cso.crash_after = {-1, 3, -1};
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
  ASSERT_EQ(r.dead_workers.size(), 1u);
  EXPECT_EQ(r.dead_workers[0], 1u);
  EXPECT_EQ(r.corrections[0], 10);
  EXPECT_EQ(r.corrections[1], 0);  // no SolveDone from the crashed worker
  EXPECT_EQ(r.corrections[2], 10);
  EXPECT_LT(r.final_rel_res, 1.0);
  EXPECT_TRUE(std::isfinite(r.final_rel_res));
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"dead_workers\":[1]"), std::string::npos);
}

TEST(NetCluster, MalformedWorkerFrameMarksDeadNotTerminate) {
  // A worker that handshakes correctly and then sends a checksum-VALID but
  // semantically invalid frame (here: a halo frame addressed to itself,
  // which decode_halo_frame rejects) must be treated like any other
  // protocol violation: the coordinator marks it dead and the survivors
  // finish with Criterion-2 recovery. Before the reader wrapped its decode
  // calls in the try block this threw out of the thread function and
  // std::terminate'd the whole coordinator process.
  Fixture f;
  DaemonSet fleet(2);
  ListenSocket rogue_listener(0);
  ASSERT_GT(rogue_listener.port(), 0);
  std::thread rogue([&] {
    try {
      FrameConn conn(rogue_listener.accept(10000));
      HelloMsg hello;
      hello.role = WireRole::kWorker;
      hello.name = "rogue";
      conn.send_frame(MsgType::kHello, encode_hello(hello));
      MsgType type{};
      std::vector<std::uint8_t> payload;
      // Play along through the handshake, wait for the solve request.
      while (conn.recv_frame(type, payload, 10000) == RecvStatus::kFrame) {
        if (type == MsgType::kSolveRequest) break;
      }
      // Hand-rolled halo payload with from == to: the frame layer accepts
      // it (checksum is ours), the semantic decoder throws WireError.
      WireWriter w;
      w.u32(1);  // from
      w.u32(1);  // to == from: "halo frame to self"
      w.u8(0);
      w.u8(0);
      w.u64(0);
      w.u32(0);  // empty data vector
      conn.send_frame(MsgType::kHaloFrame, w.bytes());
      // Keep the connection open so only the decode error (never an EOF)
      // can be what kills the session; leave when the coordinator cuts us.
      while (conn.recv_frame(type, payload, 10000) == RecvStatus::kFrame) {
      }
    } catch (const std::exception&) {
      // Coordinator shut the socket down mid-read: expected.
    }
  });

  ClusterOptions co;
  co.endpoints = {fleet.endpoints[0],
                  {"127.0.0.1", rogue_listener.port()},
                  fleet.endpoints[1]};
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = 6;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
  rogue.join();
  ASSERT_EQ(r.dead_workers.size(), 1u);
  EXPECT_EQ(r.dead_workers[0], 1u);
  EXPECT_EQ(r.corrections[0], cso.t_max);
  EXPECT_EQ(r.corrections[2], cso.t_max);
  EXPECT_TRUE(std::isfinite(r.final_rel_res));
  EXPECT_LT(r.final_rel_res, 1.0);
}

TEST(NetWorkerd, SurvivesMalformedCoordinatorFrame) {
  // The worker-side mirror: a checksum-valid but semantically invalid
  // frame arriving mid-solve must not unwind past the reader loop while
  // the solver and heartbeat threads are joinable (which would
  // std::terminate the daemon). The worker treats it as a lost
  // coordinator, finishes the solve locally, and serves the next session.
  Fixture f;
  WorkerDaemonOptions wo;
  wo.port = 0;
  wo.name = "w0";
  WorkerDaemon daemon(wo);
  std::thread dt([&] { daemon.run(); });

  const std::string hierarchy = save_hierarchy_string(f.setup->hierarchy());
  {
    FrameConn conn(connect_tcp("127.0.0.1", daemon.port(), 5000));
    MsgType type{};
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(conn.recv_frame(type, payload, 5000), RecvStatus::kFrame);
    ASSERT_EQ(type, MsgType::kHello);
    HelloAckMsg ack;
    ack.shard = 0;
    ack.num_shards = 2;
    ASSERT_TRUE(conn.send_frame(MsgType::kHelloAck, encode_hello_ack(ack)));

    SolveRequestMsg req;
    req.shard = 0;
    req.num_shards = 2;
    req.bsp = 1;
    req.t_max = 3;
    req.additive_kind = static_cast<std::uint8_t>(f.ao.kind);
    req.smoother_type =
        static_cast<std::uint8_t>(f.setup->options().smoother.type);
    req.smoother_omega = f.setup->options().smoother.omega;
    req.smoother_blocks =
        static_cast<std::uint32_t>(f.setup->options().smoother.num_blocks);
    req.max_dense_coarse =
        static_cast<std::int64_t>(f.setup->options().max_dense_coarse);
    req.setup_key = setup_key(f.setup->hierarchy(), req);
    req.hierarchy = hierarchy;
    req.b = f.b;
    req.x0 = Vector(f.b.size(), 0.0);
    ASSERT_TRUE(conn.send_frame(MsgType::kSolveRequest,
                                encode_solve_request(req)));

    // Mid-solve poison: halo frame to self, rejected by the semantic
    // decoder inside the worker's reader loop.
    WireWriter w;
    w.u32(1);
    w.u32(1);
    w.u8(0);
    w.u8(0);
    w.u64(0);
    w.u32(0);
    ASSERT_TRUE(conn.send_frame(MsgType::kHaloFrame, w.bytes()));
    // Scope exit closes the connection; by then the worker has already
    // treated the poison frame as a lost coordinator.
  }

  // The daemon survived: a fresh session serves stats counting the solve.
  {
    FrameConn conn(connect_tcp("127.0.0.1", daemon.port(), 5000));
    MsgType type{};
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(conn.recv_frame(type, payload, 5000), RecvStatus::kFrame);
    ASSERT_EQ(type, MsgType::kHello);
    HelloAckMsg ack;
    ASSERT_TRUE(conn.send_frame(MsgType::kHelloAck, encode_hello_ack(ack)));
    ASSERT_TRUE(conn.send_frame(MsgType::kStatsRequest, {}));
    std::string json;
    while (conn.recv_frame(type, payload, 5000) == RecvStatus::kFrame) {
      if (type == MsgType::kStatsResponse) {
        json = decode_stats_response(payload).json;
        break;
      }
    }
    EXPECT_NE(json.find("\"solves\":1"), std::string::npos);
  }
  daemon.request_stop();
  dt.join();
}

TEST(NetCluster, ConnectBacksOffThenFails) {
  // Nobody listening: the coordinator must retry with backoff and then
  // fail with a SocketError, not hang.
  ClusterOptions co;
  co.endpoints = {{"127.0.0.1", 1}};  // port 1: connection refused
  co.connect_attempts = 3;
  co.backoff.initial_ms = 1.0;
  co.backoff.max_ms = 4.0;
  co.connect_timeout_ms = 200;
  ClusterCoordinator coordinator(co);
  Fixture f;
  Vector x(f.b.size(), 0.0);
  ClusterSolveOptions cso;
  cso.t_max = 2;
  EXPECT_THROW(coordinator.solve(*f.setup, f.b, x, cso), SocketError);
}

TEST(NetCluster, StatsAndShutdownRoundTrip) {
  Fixture f;
  DaemonSet fleet(2);
  ClusterOptions co;
  co.endpoints = fleet.endpoints;
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.t_max = 4;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  coordinator.solve(*f.setup, f.b, x, cso);

  const std::string stats = coordinator.stats_json();
  EXPECT_NE(stats.find("\"workers\":["), std::string::npos);
  EXPECT_NE(stats.find("\"name\":\"w0\""), std::string::npos);
  EXPECT_NE(stats.find("\"solves\":1"), std::string::npos);

  // Shutdown ends run() without request_stop.
  coordinator.shutdown_workers();
  for (std::thread& t : fleet.threads) t.join();
  fleet.threads.clear();
}

TEST(NetCluster, SetupCacheWarmAcrossSolves) {
  Fixture f;
  DaemonSet fleet(2);
  ClusterOptions co;
  co.endpoints = fleet.endpoints;
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.t_max = 3;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  coordinator.solve(*f.setup, f.b, x, cso);
  Vector y(f.b.size(), 0.0);
  coordinator.solve(*f.setup, f.b, y, cso);
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], y[i]);
  const std::string stats = coordinator.stats_json();
  EXPECT_NE(stats.find("\"setup_cache_hits\":1"), std::string::npos);
}

Vector bsp_oracle(const Fixture& f, int t_max) {
  ShardOptions so;
  so.mode = ShardMode::kSynchronous;
  so.t_max = t_max;
  so.num_shards = 1;
  ShardedSolver oracle(*f.setup, f.ao, so);
  Vector x(f.b.size(), 0.0);
  oracle.solve(f.b, x);
  return x;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(NetCluster, SingleEntryCacheMissesEveryAlternation) {
  // Workers that cache one setup, alternating two operators: every solve
  // ships the hierarchy to every worker, and every answer is still bitwise
  // the in-process oracle's.
  const Fixture fa(8);
  const Fixture fb(6);
  const int t_max = 5;
  const Vector xa = bsp_oracle(fa, t_max);
  const Vector xb = bsp_oracle(fb, t_max);

  DaemonSet fleet(2, 1);
  ClusterOptions co;
  co.endpoints = fleet.endpoints;
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = t_max;
  cso.additive = fa.ao;
  for (int it = 0; it < 4; ++it) {
    const Fixture& f = it % 2 == 0 ? fa : fb;
    const Vector& oracle = it % 2 == 0 ? xa : xb;
    Vector x(f.b.size(), 0.0);
    const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
    EXPECT_TRUE(r.dead_workers.empty()) << "solve " << it;
    EXPECT_EQ(r.setup_misses, 2u) << "solve " << it;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], oracle[i]) << "solve " << it << ", row " << i;
    }
  }
  const std::string stats = coordinator.stats_json();
  EXPECT_EQ(count_of(stats, "\"setup_cache_misses\":4"), 2u) << stats;
  EXPECT_EQ(count_of(stats, "\"setup_cache_hits\":0"), 2u) << stats;
}

/// The 7pt Laplacian on an m^3 grid with its middle row stored oddly, as
/// CsrMatrix::from_csr allows: columns in reverse order, or (duplicate) the
/// row's first entry stored as two halves in one column.
CsrMatrix laplace_stored_oddly(int m, bool duplicate) {
  const CsrMatrix a = make_laplace_7pt(m).a;
  std::vector<Index> rp(a.row_ptr().begin(), a.row_ptr().end());
  std::vector<Index> ci(a.col_idx().begin(), a.col_idx().end());
  std::vector<double> v(a.values().begin(), a.values().end());
  const auto row = static_cast<std::size_t>(a.rows() / 2);
  const auto first = static_cast<std::ptrdiff_t>(rp[row]);
  const auto last = static_cast<std::ptrdiff_t>(rp[row + 1]);
  if (duplicate) {
    v[static_cast<std::size_t>(first)] *= 0.5;
    ci.insert(ci.begin() + first + 1, ci[static_cast<std::size_t>(first)]);
    v.insert(v.begin() + first + 1, v[static_cast<std::size_t>(first)]);
    for (std::size_t r = row + 1; r < rp.size(); ++r) ++rp[r];
  } else {
    std::reverse(ci.begin() + first, ci.begin() + last);
    std::reverse(v.begin() + first, v.begin() + last);
  }
  return CsrMatrix::from_csr(a.rows(), a.cols(), std::move(rp), std::move(ci),
                             std::move(v));
}

TEST(NetCluster, OperatorStoredOutOfColumnOrderSolvesBitwise) {
  // A worker recomputes the key over the hierarchy it loaded, so loading
  // must give back the coordinator's arrays exactly -- also for an A0 with
  // a row stored out of column order or with a column twice, which
  // Hierarchy::build keeps as given. Exact arrays also make the answer
  // bitwise the in-process oracle's.
  for (const bool duplicate : {false, true}) {
    const Fixture f(laplace_stored_oddly(8, duplicate));
    const int t_max = 5;
    const Vector oracle = bsp_oracle(f, t_max);
    DaemonSet fleet(2);
    ClusterOptions co;
    co.endpoints = fleet.endpoints;
    ClusterCoordinator coordinator(co);
    ClusterSolveOptions cso;
    cso.bsp = true;
    cso.t_max = t_max;
    cso.additive = f.ao;
    Vector x(f.b.size(), 0.0);
    const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
    EXPECT_TRUE(r.dead_workers.empty()) << "duplicate " << duplicate;
    EXPECT_EQ(r.setup_misses, 2u) << "duplicate " << duplicate;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], oracle[i]) << "duplicate " << duplicate << ", row " << i;
    }
  }
}

TEST(NetCluster, MixedFleetKeepsFramesThatOvertakeTheResentRequest) {
  // Two workers that hold the setup get the key alone and start solving at
  // once, while a fresh third one gets the hierarchy and loads it first.
  // The warm workers' relayed frames must reach it only after its request,
  // or its BSP rounds never complete.
  Fixture f;
  const int t_max = 6;
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = t_max;
  cso.additive = f.ao;
  DaemonSet warm(2);
  {
    ClusterOptions co;
    co.endpoints = warm.endpoints;
    Vector x(f.b.size(), 0.0);
    ASSERT_TRUE(ClusterCoordinator(co)
                    .solve(*f.setup, f.b, x, cso)
                    .dead_workers.empty());
  }
  const Vector oracle = bsp_oracle(f, t_max);
  for (int it = 0; it < 3; ++it) {
    DaemonSet fresh(1);
    ClusterOptions co;
    co.endpoints = {warm.endpoints[0], warm.endpoints[1], fresh.endpoints[0]};
    ClusterCoordinator coordinator(co);
    Vector x(f.b.size(), 0.0);
    const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
    EXPECT_TRUE(r.dead_workers.empty()) << "solve " << it;
    EXPECT_EQ(r.setup_misses, 1u) << "solve " << it;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], oracle[i]) << "solve " << it << ", row " << i;
    }
  }
}

/// Man in the middle for one coordinator session with a real worker: relays
/// every frame both ways, but passes any solve request that carries a
/// hierarchy through `rewrite` first.
class RequestRewriteProxy {
 public:
  RequestRewriteProxy(std::uint16_t worker_port,
                      std::function<void(SolveRequestMsg&)> rewrite)
      : listener_(0),
        rewrite_(std::move(rewrite)),
        thread_([this, worker_port] { run(worker_port); }) {}
  ~RequestRewriteProxy() { thread_.join(); }
  std::uint16_t port() const { return listener_.port(); }

 private:
  void run(std::uint16_t worker_port) {
    try {
      FrameConn up(listener_.accept(10000));
      FrameConn down(connect_tcp("127.0.0.1", worker_port, 5000));
      std::thread back([&] {
        MsgType type{};
        std::vector<std::uint8_t> payload;
        try {
          while (down.recv_frame(type, payload, 10000) == RecvStatus::kFrame) {
            up.send_frame(type, payload);
          }
        } catch (const std::exception&) {
        }
        up.shutdown_both();
      });
      MsgType type{};
      std::vector<std::uint8_t> payload;
      try {
        while (up.recv_frame(type, payload, 10000) == RecvStatus::kFrame) {
          if (type == MsgType::kSolveRequest) {
            SolveRequestMsg req = decode_solve_request(payload);
            if (!req.hierarchy.empty()) {
              rewrite_(req);
              payload = encode_solve_request(req);
            }
          }
          down.send_frame(type, payload);
        }
      } catch (const std::exception&) {
      }
      down.shutdown_both();
      back.join();
    } catch (const std::exception&) {
    }
  }

  ListenSocket listener_;
  std::function<void(SolveRequestMsg&)> rewrite_;
  std::thread thread_;
};

/// Flips the setup key of a full request, so the worker receives bytes that
/// disagree with their key.
class KeyFlipProxy : public RequestRewriteProxy {
 public:
  explicit KeyFlipProxy(std::uint16_t worker_port)
      : RequestRewriteProxy(worker_port,
                            [](SolveRequestMsg& req) { req.setup_key ^= 1; }) {
  }
};

TEST(NetCluster, RequestWhoseKeyDisagreesWithItsHierarchyIsRefused) {
  // The worker recomputes the key of every hierarchy it loads. A request
  // whose key names another setup is a protocol violation: the worker drops
  // the session unsolved, the coordinator reports it dead, and the
  // survivors finish every round.
  Fixture f;
  DaemonSet fleet(3);
  KeyFlipProxy proxy(fleet.endpoints[1].port);
  ClusterOptions co;
  co.endpoints = {fleet.endpoints[0],
                  {"127.0.0.1", proxy.port()},
                  fleet.endpoints[2]};
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = 6;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
  EXPECT_EQ(r.setup_misses, 3u);
  ASSERT_EQ(r.dead_workers, std::vector<std::size_t>{1});
  EXPECT_EQ(r.corrections[0], cso.t_max);
  EXPECT_EQ(r.corrections[1], 0);
  EXPECT_EQ(r.corrections[2], cso.t_max);
  EXPECT_TRUE(std::isfinite(r.final_rel_res));

  ClusterOptions one;
  one.endpoints = {fleet.endpoints[1]};
  const std::string stats = ClusterCoordinator(one).stats_json();
  EXPECT_NE(stats.find("\"solves\":0"), std::string::npos) << stats;
}

TEST(NetCluster, KeyOnlyRequestForAnUncachedSetupIsRefused) {
  // A fresh worker's hello lists no keys, so the coordinator sends it the
  // hierarchy; a proxy strips it. A key-only request for a setup the worker
  // does not hold is a protocol violation: the worker drops the session
  // unsolved, the coordinator reports it dead, and the survivors finish
  // every round.
  Fixture f;
  DaemonSet fleet(3);
  RequestRewriteProxy proxy(fleet.endpoints[1].port,
                            [](SolveRequestMsg& req) { req.hierarchy.clear(); });
  ClusterOptions co;
  co.endpoints = {fleet.endpoints[0],
                  {"127.0.0.1", proxy.port()},
                  fleet.endpoints[2]};
  ClusterCoordinator coordinator(co);
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = 6;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = coordinator.solve(*f.setup, f.b, x, cso);
  EXPECT_EQ(r.setup_misses, 3u);
  ASSERT_EQ(r.dead_workers, std::vector<std::size_t>{1});
  EXPECT_EQ(r.corrections[0], cso.t_max);
  EXPECT_EQ(r.corrections[1], 0);
  EXPECT_EQ(r.corrections[2], cso.t_max);
  EXPECT_TRUE(std::isfinite(r.final_rel_res));

  ClusterOptions one;
  one.endpoints = {fleet.endpoints[1]};
  const std::string stats = ClusterCoordinator(one).stats_json();
  EXPECT_NE(stats.find("\"solves\":0"), std::string::npos) << stats;
}

TEST(NetCluster, RefusesProtocolOneWorker) {
  // A worker that still speaks protocol 1 is refused at the handshake: no
  // assignment, and the solve fails once the connection attempts run out.
  ListenSocket old_listener(0);
  std::thread old_worker([&] {
    try {
      FrameConn conn(old_listener.accept(10000));
      HelloMsg hello;
      hello.protocol = 1;
      hello.name = "v1";
      conn.send_frame(MsgType::kHello, encode_hello(hello));
      MsgType type{};
      std::vector<std::uint8_t> payload;
      while (conn.recv_frame(type, payload, 10000) == RecvStatus::kFrame) {
        ADD_FAILURE() << "coordinator answered a protocol-1 hello with "
                      << msg_type_name(type);
      }
    } catch (const std::exception&) {
    }
  });
  ClusterOptions co;
  co.endpoints = {{"127.0.0.1", old_listener.port()}};
  co.connect_attempts = 1;
  ClusterCoordinator coordinator(co);
  Fixture f;
  Vector x(f.b.size(), 0.0);
  ClusterSolveOptions cso;
  cso.t_max = 2;
  try {
    coordinator.solve(*f.setup, f.b, x, cso);
    ADD_FAILURE() << "solve against a protocol-1 worker returned";
  } catch (const SocketError& e) {
    EXPECT_NE(std::string(e.what()).find("incompatible worker"),
              std::string::npos)
        << e.what();
  }
  old_worker.join();
}

// ---------------------------------------------------------------------------
// ClusterRouter placement
// ---------------------------------------------------------------------------

TEST(NetRouter, SelectBackendsDistinctAndDeterministic) {
  const std::vector<RingNode> ring = build_hash_ring(5, 16, 0);
  Rng rng(3);
  for (int it = 0; it < 100; ++it) {
    const std::uint64_t key = rng.next_u64();
    const std::vector<std::size_t> a = select_backends(ring, key, 3);
    const std::vector<std::size_t> b = select_backends(ring, key, 3);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 3u);
    std::vector<std::size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
    for (std::size_t e : a) EXPECT_LT(e, 5u);
  }
  EXPECT_THROW(select_backends(ring, 0, 6), std::invalid_argument);
}

TEST(NetRouter, RoutesSolveToHomeWorkers) {
  Fixture f;
  DaemonSet fleet(3);
  ClusterRouterOptions ro;
  ro.endpoints = fleet.endpoints;
  ro.shards_per_solve = 2;
  ClusterRouter router(ro);

  const std::vector<std::size_t> home = router.endpoints_for(f.setup->a(0));
  ASSERT_EQ(home.size(), 2u);
  EXPECT_EQ(home, router.endpoints_for(f.setup->a(0)));  // stable placement

  ClusterSolveOptions cso;
  cso.t_max = 6;
  cso.additive = f.ao;
  Vector x(f.b.size(), 0.0);
  const ClusterResult r = router.solve(*f.setup, f.b, x, cso);
  EXPECT_TRUE(r.dead_workers.empty());
  EXPECT_LT(r.final_rel_res, 1.0);

  const std::string stats = router.stats_json();
  EXPECT_NE(stats.find("\"routed\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"routed_per_endpoint\""), std::string::npos);
  // The two home workers each served one solve; the third served none.
  EXPECT_NE(stats.find("\"solves\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"solves\":0"), std::string::npos);
}

TEST(NetRouter, RepeatedSolveShipsOnlyTheSetupKey) {
  // Two solves of one operator through the router land on the same home
  // workers. The first ships the hierarchy to each (their hellos list no
  // keys); the second names the setup by key alone, so the coordinator
  // sends one serialized hierarchy less per worker, and the answers are
  // bitwise equal.
  Fixture f;
  DaemonSet fleet(3);
  ClusterRouterOptions ro;
  ro.endpoints = fleet.endpoints;
  ro.shards_per_solve = 2;
  ClusterRouter router(ro);
  ClusterSolveOptions cso;
  cso.t_max = 6;
  cso.additive = f.ao;

  Vector x1(f.b.size(), 0.0);
  const ClusterResult r1 = router.solve(*f.setup, f.b, x1, cso);
  Vector x2(f.b.size(), 0.0);
  const ClusterResult r2 = router.solve(*f.setup, f.b, x2, cso);
  EXPECT_TRUE(r1.dead_workers.empty());
  EXPECT_TRUE(r2.dead_workers.empty());
  EXPECT_EQ(r1.setup_misses, 2u);
  EXPECT_EQ(r2.setup_misses, 0u);
  EXPECT_NE(r2.to_json().find("\"setup_misses\":0"), std::string::npos);
  const std::size_t hierarchy_bytes =
      save_hierarchy_string(f.setup->hierarchy()).size();
  ASSERT_GT(r1.bytes_sent, r2.bytes_sent);
  // Exactly 2 hierarchies apart, give or take the last halo and progress
  // frames, which are not relayed to a worker that has finished. Bound
  // midway between a second solve that ships no hierarchy (gap 2) and one
  // that ships it to one worker (gap 1).
  EXPECT_GT(r1.bytes_sent - r2.bytes_sent, 3 * hierarchy_bytes / 2);
  for (std::size_t i = 0; i < x1.size(); ++i) ASSERT_EQ(x1[i], x2[i]);

  // Each home worker loaded the hierarchy once; the third never saw it.
  const std::string stats = router.stats_json();
  EXPECT_EQ(count_of(stats, "\"setup_cache_misses\":1"), 2u) << stats;
  EXPECT_EQ(count_of(stats, "\"setup_cache_hits\":1"), 2u) << stats;
}

}  // namespace
}  // namespace asyncmg
