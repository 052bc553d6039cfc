#pragma once
// Versioned, length-prefixed wire protocol of the multi-process solver
// service (DESIGN.md section 14). Every message is one frame:
//
//   [u32 magic "aMG1"] [u8 version] [u8 type] [u16 reserved = 0]
//   [u32 payload_len]  [u32 payload checksum] [payload bytes]
//
// Version 4: a halo frame carries the sender's whole owned block of x
// (HaloTag::kBoundaryX, the only payload kind), so a version-3 peer's
// boundary-only frames would fail every length check; the header refuses
// them instead. A worker's hello lists the setup keys it caches (setup_key
// below), and a solve request carries the hierarchy only when that list
// lacks its key; the checksum hashes the payload in 8-byte words
// (wire_checksum).
//
// All integers are little-endian ON THE WIRE regardless of host order --
// encode/decode goes through explicit byte shifts, never memcpy of host
// representations -- and floating-point payloads are width-aware (fp64 or
// fp32 per frame, the PR 7 precision tags carried into the halo path): an
// fp32 frame ships 4-byte IEEE singles that round-trip bit for bit.
//
// Decoding is defensive by construction: WireReader bounds-checks every
// read and throws WireError on truncation, the frame header rejects bad
// magic/version/oversized lengths before any payload is touched, and the
// checksum rejects corrupted payloads -- a malformed peer can make us throw,
// never read out of bounds (the fuzz suite in tests/test_net.cpp runs these
// decoders under ASan/UBSan on random truncations and bit flips).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "amg/hierarchy.hpp"
#include "shard/transport.hpp"

namespace asyncmg {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what)
      : std::runtime_error("wire: " + what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x314D4761u;  // "aMG1"
inline constexpr std::uint8_t kWireVersion = 4;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on a payload; longer length prefixes are treated as
/// corruption (protects the reassembly buffer from a hostile length).
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

enum class MsgType : std::uint8_t {
  kHello = 1,       // worker -> router: who am I
  kHelloAck,        // router -> worker: your shard assignment
  kSolveRequest,    // router -> worker: problem + role for one solve
  kHaloFrame,       // worker <-> worker (relayed): owned block of x
  kProgress,        // worker -> all: committed correction count
  kHeartbeat,       // worker -> router: liveness + progress
  kPeerDead,        // router -> workers: peer will never commit again
  kSolveDone,       // worker -> router: owned block + per-worker counters
  kStatsRequest,    // router -> worker
  kStatsResponse,   // worker -> router: metrics JSON
  kShutdown,        // router -> worker: exit cleanly
};

const char* msg_type_name(MsgType t);

/// Scalar width of a frame's floating-point payload.
enum class WireWidth : std::uint8_t { kF64 = 0, kF32 = 1 };

// ---------------------------------------------------------------------------
// Byte-level encode / decode
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void f32(float v);
  /// Length-prefixed (u32) byte string.
  void str(const std::string& s);
  /// Length-prefixed (u32) vector of doubles at the given width; fp32
  /// narrows each value (the caller owns the rounding decision).
  void vec(const std::vector<double>& v, WireWidth w);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), n_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& b)
      : WireReader(b.data(), b.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  float f32();
  std::string str();
  std::vector<double> vec(WireWidth w);

  std::size_t remaining() const { return n_ - off_; }
  /// Throws WireError unless the payload was consumed exactly.
  void expect_end() const;

 private:
  void need(std::size_t k) const;
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

/// Frame checksum: FNV-1a-64 over the range read as little-endian 8-byte
/// words (byte-wise over the last size % 8 bytes), folded to 32 bits. One
/// multiply per word instead of per byte; the same value on any host order.
std::uint32_t wire_checksum(const std::uint8_t* data, std::size_t size);

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

struct FrameHeader {
  MsgType type = MsgType::kHello;
  std::uint32_t payload_len = 0;
  std::uint32_t checksum = 0;
};

/// Serializes header + payload into one contiguous wire frame.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

/// Parses and validates the 16-byte header (magic, version, reserved bytes,
/// length bound). Throws WireError on any violation.
FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t size);

/// Validates `payload` against the header checksum; throws WireError.
void verify_frame_payload(const FrameHeader& h, const std::uint8_t* payload);

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

enum class WireRole : std::uint8_t { kRouter = 0, kWorker = 1 };

struct HelloMsg {
  WireRole role = WireRole::kWorker;
  std::uint32_t protocol = kWireVersion;
  std::string name;
  /// setup_key of every setup the worker caches.
  std::vector<std::uint64_t> setup_keys;
};

struct HelloAckMsg {
  std::uint32_t protocol = kWireVersion;
  std::uint32_t shard = 0;
  std::uint32_t num_shards = 1;
};

/// Everything a worker needs to run one shard of a solve. The setup is named
/// by `setup_key`; a worker whose hello listed the key gets the key alone,
/// any other also gets the hierarchy in the amg/serialize format (bit-exact
/// round trip). Either way every participant holds the SAME MgSetup and
/// ShardPlan -- no further coordination is needed for the BSP discipline to
/// be bitwise reproducible across processes.
struct SolveRequestMsg {
  std::uint32_t shard = 0;
  std::uint32_t num_shards = 1;
  std::uint8_t bsp = 1;  // 1 = deterministic BSP rounds, 0 = free-running
  WireWidth width = WireWidth::kF64;  // halo payload width
  std::int32_t t_max = 20;
  std::int32_t max_lag = 3;
  std::uint64_t seed = 1;
  // AdditiveOptions
  std::uint8_t additive_kind = 1;  // AdditiveKind
  std::uint8_t symmetrized_lambda = 0;
  std::int32_t afacx_s1 = 1;
  std::int32_t afacx_s2 = 1;
  // MgOptions subset the solve path reads (hierarchy is prebuilt)
  std::uint8_t smoother_type = 0;
  double smoother_omega = 0.9;
  std::uint32_t smoother_blocks = 1;
  std::int64_t max_dense_coarse = 2000;
  /// Test hook: worker drops the connection without SolveDone after this
  /// many corrections (-1 = never) -- a deterministic stand-in for SIGKILL
  /// in crash-recovery tests.
  std::int32_t crash_after = -1;
  /// setup_key() of the hierarchy and the smoother fields above.
  std::uint64_t setup_key = 0;
  /// save_hierarchy_string bytes; empty in a key-only request.
  std::string hierarchy;
  std::vector<double> b;
  std::vector<double> x0;
};

struct HaloFrameMsg {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint8_t tag = 0;  // HaloTag
  WireWidth width = WireWidth::kF64;
  std::uint64_t seq = 0;
  std::vector<double> data;
};

struct ProgressMsg {
  std::uint32_t shard = 0;
  std::uint64_t commits = 0;
};

struct HeartbeatMsg {
  std::uint32_t shard = 0;
  std::uint64_t commits = 0;
  std::uint64_t seq = 0;
};

struct PeerDeadMsg {
  std::uint32_t shard = 0;
};

struct SolveDoneMsg {
  std::uint32_t shard = 0;
  std::uint32_t corrections = 0;
  std::uint32_t reads_dropped = 0;
  std::uint8_t killed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::vector<double> x_block;  // owned rows, always fp64
};

struct StatsResponseMsg {
  std::string json;
};

/// The 64-bit name of the setup a solve request asks for: every level's A
/// and P (shape, precision tag and CSR arrays at their stored width), every
/// level's C/F splitting, and the request's smoother and coarse-solve
/// fields, chained through one hash. The coordinator computes it from its
/// MgSetup, a worker from the hierarchy it loaded (amg/serialize round trips
/// the arrays exactly); hashing in-memory arrays, it agrees across processes
/// of one byte order (which bitwise BSP already assumes).
std::uint64_t setup_key(const Hierarchy& h, const SolveRequestMsg& req);

std::vector<std::uint8_t> encode_hello(const HelloMsg& m);
std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m);
std::vector<std::uint8_t> encode_solve_request(const SolveRequestMsg& m);
std::vector<std::uint8_t> encode_halo_frame(const HaloFrameMsg& m);
std::vector<std::uint8_t> encode_progress(const ProgressMsg& m);
std::vector<std::uint8_t> encode_heartbeat(const HeartbeatMsg& m);
std::vector<std::uint8_t> encode_peer_dead(const PeerDeadMsg& m);
std::vector<std::uint8_t> encode_solve_done(const SolveDoneMsg& m);
std::vector<std::uint8_t> encode_stats_response(const StatsResponseMsg& m);

/// Decoders validate every field (enum ranges, payload fully consumed) and
/// throw WireError on malformed input.
HelloMsg decode_hello(const std::vector<std::uint8_t>& p);
HelloAckMsg decode_hello_ack(const std::vector<std::uint8_t>& p);
SolveRequestMsg decode_solve_request(const std::vector<std::uint8_t>& p);
HaloFrameMsg decode_halo_frame(const std::vector<std::uint8_t>& p);
ProgressMsg decode_progress(const std::vector<std::uint8_t>& p);
HeartbeatMsg decode_heartbeat(const std::vector<std::uint8_t>& p);
PeerDeadMsg decode_peer_dead(const std::vector<std::uint8_t>& p);
SolveDoneMsg decode_solve_done(const std::vector<std::uint8_t>& p);
StatsResponseMsg decode_stats_response(const std::vector<std::uint8_t>& p);

/// HaloFrameMsg <-> the shard executor's HaloPacket.
HaloFrameMsg halo_to_wire(std::size_t from, std::size_t to, HaloTag tag,
                          const HaloPacket& p, WireWidth w);
HaloPacket wire_to_halo(const HaloFrameMsg& m);

}  // namespace asyncmg
