#pragma once
// Thin POSIX TCP layer of the multi-process solver service: RAII sockets,
// loopback/host connect with timeout, and FrameConn -- a framed connection
// that speaks the wire protocol (net/wire.hpp) with incremental reassembly,
// so a frame split across arbitrarily many TCP segments is reconstructed
// without ever trusting a length prefix beyond kMaxPayloadBytes.
//
// Concurrency: FrameConn serializes writers through a mutex (the worker's
// solver thread and heartbeat thread share one connection to the router) and
// assumes a single reader thread, which is how every user is structured
// (one reader loop per connection).

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace asyncmg {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what)
      : std::runtime_error("socket: " + what) {}
};

/// Move-only RAII wrapper over a connected TCP file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Closes the descriptor; safe to call repeatedly.
  void close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1. Port 0 binds an ephemeral port;
/// `port()` reports the actual one (the worker daemon prints it so tests and
/// the bench harness can spawn on port 0 without races).
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port, int backlog = 16);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Waits up to `timeout_ms` for a connection (-1 = forever). Returns an
  /// invalid Socket on timeout; throws SocketError on failure.
  Socket accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to host:port, failing after `timeout_ms`. Throws SocketError.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms);

/// Result of FrameConn::recv_frame.
enum class RecvStatus {
  kFrame,    // a complete, checksum-verified frame was produced
  kTimeout,  // nothing complete within the deadline; partial bytes retained
  kClosed,   // orderly EOF or connection reset by peer
  kWoken,    // the WakeFd passed to recv_frame was signalled
};

/// An eventfd a thread blocked in FrameConn::recv_frame (or in wait_for)
/// also polls, so it wakes when local work ends instead of at a poll
/// timeout. Level-triggered and never reset: once signal() has run, every
/// later recv_frame that polls it returns kWoken as soon as no complete
/// frame is buffered, and every wait_for returns true at once.
class WakeFd {
 public:
  /// Throws SocketError when the eventfd cannot be created.
  WakeFd();
  ~WakeFd();
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  /// Thread-safe; idempotent.
  void signal();
  /// Blocks until signal() has run (true) or `ms` milliseconds pass
  /// (false). Throws SocketError when the wait itself fails.
  bool wait_for(double ms) const;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// One wire-protocol connection: writes whole frames, reads frames
/// incrementally across TCP segment boundaries. Byte counters feed the
/// per-worker telemetry (bytes on the wire, frames in each direction).
class FrameConn {
 public:
  explicit FrameConn(Socket sock);

  /// Encodes and writes one frame. Thread-safe (internal mutex); blocks
  /// until the frame is fully written. Returns false when the peer is gone
  /// (EPIPE / reset) -- senders treat that as a dead peer, never an error.
  bool send_frame(MsgType type, const std::vector<std::uint8_t>& payload);

  /// Reads until one complete frame is available or `timeout_ms` elapses
  /// (-1 = forever), or -- when `wake` is given -- until it is signalled
  /// (kWoken). On kFrame fills `type` and `payload` (checksum already
  /// verified). Throws WireError on protocol violations (bad magic, bad
  /// checksum, oversized length) -- callers drop the connection. Built on
  /// the two steps below.
  RecvStatus recv_frame(MsgType& type, std::vector<std::uint8_t>& payload,
                        int timeout_ms, const WakeFd* wake = nullptr);

  /// One nonblocking read of what the socket holds into the reassembly
  /// buffer, for a caller that polls many connections itself. Returns
  /// false on EOF or a reset; true otherwise, also when nothing was ready.
  bool read_available();
  /// Takes one complete, checksum-verified frame off the reassembly buffer;
  /// false when none is complete. Throws WireError like recv_frame. A frame
  /// already buffered does not make the socket poll readable, so a poller
  /// peels until false before it polls again.
  bool peel_frame(MsgType& type, std::vector<std::uint8_t>& payload);

  bool open() const { return sock_.valid() && !peer_gone_; }
  void close() { sock_.close(); }
  /// Half-closes both directions (::shutdown). Unlike close() this is safe
  /// to call from another thread while a reader polls or a writer blocks:
  /// both wake with EOF/EPIPE -- the control plane uses it to cut off a
  /// worker declared dead without racing on the descriptor.
  void shutdown_both();
  int fd() const { return sock_.fd(); }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }

 private:
  Socket sock_;
  std::mutex send_mu_;
  bool peer_gone_ = false;
  std::vector<std::uint8_t> rbuf_;  // unconsumed reassembly bytes
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
};

}  // namespace asyncmg
