#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "service/fingerprint.hpp"

namespace asyncmg {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello-ack";
    case MsgType::kSolveRequest:
      return "solve-request";
    case MsgType::kHaloFrame:
      return "halo-frame";
    case MsgType::kPeerHello:
      return "peer-hello";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kPeerDead:
      return "peer-dead";
    case MsgType::kSolveDone:
      return "solve-done";
    case MsgType::kStatsRequest:
      return "stats-request";
    case MsgType::kStatsResponse:
      return "stats-response";
    case MsgType::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::vec(const std::vector<double>& v, WireWidth w) {
  u32(static_cast<std::uint32_t>(v.size()));
  if (w == WireWidth::kF32) {
    for (double x : v) f32(static_cast<float>(x));
  } else if constexpr (std::endian::native == std::endian::little) {
    // A little-endian host's doubles already are the wire's bytes.
    const std::size_t at = buf_.size();
    buf_.resize(at + v.size() * sizeof(double));
    if (!v.empty()) {
      std::memcpy(buf_.data() + at, v.data(), v.size() * sizeof(double));
    }
  } else {
    for (double x : v) f64(x);
  }
}

// ---------------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------------

void WireReader::need(std::size_t k) const {
  if (n_ - off_ < k) throw WireError("truncated payload");
}

std::uint8_t WireReader::u8() {
  need(1);
  return p_[off_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(p_[off_ + i])
                                        << (8 * i)));
  }
  off_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p_[off_ + i]) << (8 * i);
  }
  off_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
  }
  off_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

float WireReader::f32() { return std::bit_cast<float>(u32()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  // The length prefix is attacker-controlled; bound it by the bytes
  // actually present before allocating.
  need(len);
  std::string s(reinterpret_cast<const char*>(p_ + off_), len);
  off_ += len;
  return s;
}

std::vector<double> WireReader::vec(WireWidth w) {
  const std::uint32_t len = u32();
  const std::size_t elem = w == WireWidth::kF64 ? 8 : 4;
  need(static_cast<std::size_t>(len) * elem);
  std::vector<double> v;
  if (w == WireWidth::kF32) {
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      v.push_back(static_cast<double>(f32()));
    }
  } else if constexpr (std::endian::native == std::endian::little) {
    v.resize(len);
    if (len > 0) std::memcpy(v.data(), p_ + off_, len * sizeof(double));
    off_ += len * sizeof(double);
  } else {
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) v.push_back(f64());
  }
  return v;
}

void WireReader::expect_end() const {
  if (off_ != n_) throw WireError("trailing bytes after payload");
}

std::uint32_t wire_checksum(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 1099511628211ull;  // FNV prime
  std::uint64_t h = 1469598103934665603ull;           // FNV offset basis
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, data + i, 8);
    } else {
      for (int k = 0; k < 8; ++k) {
        w |= static_cast<std::uint64_t>(data[i + k]) << (8 * k);
      }
    }
    h ^= w;
    h *= kPrime;
  }
  for (; i < size; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw WireError("payload exceeds kMaxPayloadBytes");
  }
  WireWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.u32(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(wire_checksum(payload.data(), payload.size()));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderBytes) throw WireError("truncated frame header");
  WireReader r(data, kFrameHeaderBytes);
  if (r.u32() != kWireMagic) throw WireError("bad magic");
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw WireError("unsupported protocol version " + std::to_string(version));
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kShutdown)) {
    throw WireError("unknown message type " + std::to_string(type));
  }
  if (r.u16() != 0) throw WireError("nonzero reserved field");
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.payload_len = r.u32();
  if (h.payload_len > kMaxPayloadBytes) {
    throw WireError("payload length exceeds bound");
  }
  h.checksum = r.u32();
  return h;
}

void verify_frame_payload(const FrameHeader& h, const std::uint8_t* payload) {
  if (wire_checksum(payload, h.payload_len) != h.checksum) {
    throw WireError("payload checksum mismatch");
  }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

namespace {

WireWidth parse_width(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(WireWidth::kF32)) {
    throw WireError("bad payload width tag");
  }
  return static_cast<WireWidth>(v);
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(m.role));
  w.u32(m.protocol);
  w.str(m.name);
  w.u32(static_cast<std::uint32_t>(m.setup_keys.size()));
  for (std::uint64_t k : m.setup_keys) w.u64(k);
  w.u16(m.data_port);
  return w.take();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HelloMsg m;
  const std::uint8_t role = r.u8();
  if (role > static_cast<std::uint8_t>(WireRole::kWorker)) {
    throw WireError("bad role");
  }
  m.role = static_cast<WireRole>(role);
  m.protocol = r.u32();
  m.name = r.str();
  const std::uint32_t keys = r.u32();
  // Bound the attacker-controlled count by the bytes present.
  if (keys > r.remaining() / 8) throw WireError("truncated setup keys");
  m.setup_keys.resize(keys);
  for (std::uint64_t& k : m.setup_keys) k = r.u64();
  m.data_port = r.u16();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m) {
  WireWriter w;
  w.u32(m.protocol);
  w.u32(m.shard);
  w.u32(m.num_shards);
  return w.take();
}

HelloAckMsg decode_hello_ack(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HelloAckMsg m;
  m.protocol = r.u32();
  m.shard = r.u32();
  m.num_shards = r.u32();
  if (m.num_shards == 0 || m.shard >= m.num_shards) {
    throw WireError("bad shard assignment");
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_solve_request(const SolveRequestMsg& m) {
  WireWriter w;
  w.u32(m.shard);
  w.u32(m.num_shards);
  w.u8(m.bsp);
  w.u8(static_cast<std::uint8_t>(m.width));
  w.u32(static_cast<std::uint32_t>(m.t_max));
  w.u32(static_cast<std::uint32_t>(m.max_lag));
  w.u64(m.seed);
  w.u8(m.additive_kind);
  w.u8(m.symmetrized_lambda);
  w.u32(static_cast<std::uint32_t>(m.afacx_s1));
  w.u32(static_cast<std::uint32_t>(m.afacx_s2));
  w.u8(m.smoother_type);
  w.f64(m.smoother_omega);
  w.u32(m.smoother_blocks);
  w.i64(m.max_dense_coarse);
  w.u32(static_cast<std::uint32_t>(m.crash_after));
  w.u64(m.setup_key);
  w.u64(m.link_nonce);
  w.u32(m.link_timeout_ms);
  w.u32(static_cast<std::uint32_t>(m.peers.size()));
  for (const Endpoint& e : m.peers) {
    w.str(e.host);
    w.u16(e.port);
  }
  w.str(m.hierarchy);
  w.vec(m.b, WireWidth::kF64);
  w.vec(m.x0, WireWidth::kF64);
  return w.take();
}

SolveRequestMsg decode_solve_request(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  SolveRequestMsg m;
  m.shard = r.u32();
  m.num_shards = r.u32();
  if (m.num_shards == 0 || m.shard >= m.num_shards) {
    throw WireError("bad shard assignment");
  }
  m.bsp = r.u8();
  if (m.bsp > 1) throw WireError("bad bsp flag");
  m.width = parse_width(r.u8());
  m.t_max = static_cast<std::int32_t>(r.u32());
  if (m.t_max < 1) throw WireError("bad t_max");
  m.max_lag = static_cast<std::int32_t>(r.u32());
  if (m.max_lag < 0) throw WireError("bad max_lag");
  m.seed = r.u64();
  m.additive_kind = r.u8();
  if (m.additive_kind > 2) throw WireError("bad additive kind");
  m.symmetrized_lambda = r.u8();
  if (m.symmetrized_lambda > 1) throw WireError("bad symmetrized flag");
  m.afacx_s1 = static_cast<std::int32_t>(r.u32());
  m.afacx_s2 = static_cast<std::int32_t>(r.u32());
  if (m.afacx_s1 < 1 || m.afacx_s2 < 1) throw WireError("bad afacx sweeps");
  m.smoother_type = r.u8();
  if (m.smoother_type > 4) throw WireError("bad smoother type");
  m.smoother_omega = r.f64();
  m.smoother_blocks = r.u32();
  if (m.smoother_blocks < 1) throw WireError("bad smoother blocks");
  m.max_dense_coarse = r.i64();
  m.crash_after = static_cast<std::int32_t>(r.u32());
  m.setup_key = r.u64();
  m.link_nonce = r.u64();
  m.link_timeout_ms = r.u32();
  if (m.link_timeout_ms < 1) throw WireError("bad link timeout");
  const std::uint32_t peers = r.u32();
  if (peers != 0 && peers != m.num_shards) {
    throw WireError("peer endpoints must be none or one per shard");
  }
  // Bound the attacker-controlled count by the bytes present (an endpoint
  // takes at least a u32 host length and a u16 port).
  if (peers > r.remaining() / 6) throw WireError("truncated peer endpoints");
  m.peers.resize(peers);
  for (Endpoint& e : m.peers) {
    e.host = r.str();
    e.port = r.u16();
  }
  m.hierarchy = r.str();
  m.b = r.vec(WireWidth::kF64);
  m.x0 = r.vec(WireWidth::kF64);
  if (m.b.size() != m.x0.size()) throw WireError("b/x0 size mismatch");
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_halo_frame(const HaloFrameMsg& m) {
  WireWriter w;
  w.u32(m.from);
  w.u32(m.to);
  w.u8(m.tag);
  w.u8(static_cast<std::uint8_t>(m.width));
  w.u64(m.seq);
  w.vec(m.data, m.width);
  return w.take();
}

HaloFrameMsg decode_halo_frame(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HaloFrameMsg m;
  m.from = r.u32();
  m.to = r.u32();
  if (m.from == m.to) throw WireError("halo frame to self");
  m.tag = r.u8();
  if (m.tag >= kNumHaloTags) throw WireError("bad halo tag");
  m.width = parse_width(r.u8());
  m.seq = r.u64();
  m.data = r.vec(m.width);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_peer_hello(const PeerHelloMsg& m) {
  WireWriter w;
  w.u64(m.nonce);
  w.u32(m.from);
  w.u32(m.to);
  return w.take();
}

PeerHelloMsg decode_peer_hello(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  PeerHelloMsg m;
  m.nonce = r.u64();
  m.from = r.u32();
  m.to = r.u32();
  if (m.from == m.to) throw WireError("peer hello to self");
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatMsg& m) {
  WireWriter w;
  w.u32(m.shard);
  w.u64(m.commits);
  w.u64(m.seq);
  return w.take();
}

HeartbeatMsg decode_heartbeat(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  HeartbeatMsg m;
  m.shard = r.u32();
  m.commits = r.u64();
  m.seq = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_peer_dead(const PeerDeadMsg& m) {
  WireWriter w;
  w.u32(m.shard);
  return w.take();
}

PeerDeadMsg decode_peer_dead(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  PeerDeadMsg m;
  m.shard = r.u32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_solve_done(const SolveDoneMsg& m) {
  WireWriter w;
  w.u32(m.shard);
  w.u32(m.corrections);
  w.u32(m.reads_dropped);
  w.u8(m.killed);
  w.u64(m.frames_sent);
  w.u64(m.frames_dropped);
  w.u64(m.bytes_sent);
  w.u64(m.bytes_received);
  w.vec(m.x_block, WireWidth::kF64);
  return w.take();
}

SolveDoneMsg decode_solve_done(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  SolveDoneMsg m;
  m.shard = r.u32();
  m.corrections = r.u32();
  m.reads_dropped = r.u32();
  m.killed = r.u8();
  if (m.killed > 1) throw WireError("bad killed flag");
  m.frames_sent = r.u64();
  m.frames_dropped = r.u64();
  m.bytes_sent = r.u64();
  m.bytes_received = r.u64();
  m.x_block = r.vec(WireWidth::kF64);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponseMsg& m) {
  WireWriter w;
  w.str(m.json);
  return w.take();
}

StatsResponseMsg decode_stats_response(const std::vector<std::uint8_t>& p) {
  WireReader r(p);
  StatsResponseMsg m;
  m.json = r.str();
  r.expect_end();
  return m;
}

std::uint64_t setup_key(const Hierarchy& h, const SolveRequestMsg& req) {
  std::uint64_t key = kContentHashSeed;
  auto mix = [&key](const void* data, std::size_t len) {
    key = content_hash(data, len, key);
  };
  auto mix_matrix = [&mix](const CsrMatrix& m) {
    const std::uint64_t shape[4] = {static_cast<std::uint64_t>(m.rows()),
                                    static_cast<std::uint64_t>(m.cols()),
                                    static_cast<std::uint64_t>(m.nnz()),
                                    static_cast<std::uint64_t>(m.precision())};
    mix(shape, sizeof(shape));
    mix(m.row_ptr().data(), m.row_ptr().size_bytes());
    mix(m.col_idx().data(), m.col_idx().size_bytes());
    m.with_values([&](const auto* v) { mix(v, m.value_bytes()); });
  };
  const std::uint64_t levels = h.num_levels();
  mix(&levels, sizeof(levels));
  for (std::size_t k = 0; k < h.num_levels(); ++k) {
    const AmgLevel& lvl = h.level(k);
    mix_matrix(lvl.a);
    mix_matrix(lvl.p);
    const std::uint64_t split_len = lvl.split.size();
    mix(&split_len, sizeof(split_len));
    mix(lvl.split.data(), lvl.split.size() * sizeof(PointType));
  }
  mix(&req.smoother_type, sizeof(req.smoother_type));
  mix(&req.smoother_omega, sizeof(req.smoother_omega));
  mix(&req.smoother_blocks, sizeof(req.smoother_blocks));
  mix(&req.max_dense_coarse, sizeof(req.max_dense_coarse));
  return key;
}

HaloFrameMsg halo_to_wire(std::size_t from, std::size_t to, HaloTag tag,
                          const HaloPacket& p, WireWidth w) {
  HaloFrameMsg m;
  m.from = static_cast<std::uint32_t>(from);
  m.to = static_cast<std::uint32_t>(to);
  m.tag = static_cast<std::uint8_t>(tag);
  m.width = w;
  m.seq = p.seq;
  m.data = p.data;
  return m;
}

HaloPacket wire_to_halo(const HaloFrameMsg& m) {
  HaloPacket p;
  p.seq = m.seq;
  p.data = m.data;
  return p;
}

}  // namespace asyncmg
