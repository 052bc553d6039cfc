#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace asyncmg {

namespace {

std::string errno_str(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

/// Remaining milliseconds until `deadline`; -1 when there is no deadline.
int remaining_ms(std::chrono::steady_clock::time_point deadline,
                 bool has_deadline) {
  if (!has_deadline) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return ms > 0 ? static_cast<int>(ms) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// WakeFd
// ---------------------------------------------------------------------------

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (fd_ < 0) throw SocketError(errno_str("eventfd"));
}

WakeFd::~WakeFd() { ::close(fd_); }

void WakeFd::signal() {
  const std::uint64_t one = 1;
  // Nonblocking: only a counter at its maximum refuses, and that is
  // readable already.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
}

bool WakeFd::wait_for(double ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double, std::milli>(ms));
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const auto left = std::max(deadline - std::chrono::steady_clock::now(),
                               std::chrono::steady_clock::duration::zero());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) throw SocketError(errno_str("ppoll"));
  }
}

// ---------------------------------------------------------------------------
// ListenSocket
// ---------------------------------------------------------------------------

ListenSocket::ListenSocket(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw SocketError(errno_str("socket"));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = errno_str("bind");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = errno_str("getsockname");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, backlog) != 0) {
    const std::string err = errno_str("listen");
    ::close(fd_);
    fd_ = -1;
    throw SocketError(err);
  }
}

ListenSocket::~ListenSocket() { close(); }

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket ListenSocket::accept(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_str("poll"));
    }
    if (rc == 0) return Socket();  // timeout
    break;
  }
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) throw SocketError(errno_str("accept"));
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(cfd);
}

// ---------------------------------------------------------------------------
// connect_tcp
// ---------------------------------------------------------------------------

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("bad IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SocketError(errno_str("socket"));
  Socket sock(fd);

  // Nonblocking connect + poll so a down peer fails after timeout_ms rather
  // than the kernel's multi-minute default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    throw SocketError(errno_str("connect"));
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    for (;;) {
      rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      break;
    }
    if (rc < 0) throw SocketError(errno_str("poll"));
    if (rc == 0) throw SocketError("connect timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      errno = err != 0 ? err : errno;
      throw SocketError(errno_str("connect"));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

// ---------------------------------------------------------------------------
// FrameConn
// ---------------------------------------------------------------------------

FrameConn::FrameConn(Socket sock) : sock_(std::move(sock)) {}

void FrameConn::shutdown_both() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

bool FrameConn::send_frame(MsgType type,
                           const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (!sock_.valid() || peer_gone_) return false;
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the process.
    const ssize_t n = ::send(sock_.fd(), frame.data() + off,
                             frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      peer_gone_ = true;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_sent_ += frame.size();
  ++frames_sent_;
  return true;
}

bool FrameConn::peel_frame(MsgType& type,
                           std::vector<std::uint8_t>& payload) {
  if (rbuf_.size() < kFrameHeaderBytes) return false;
  const FrameHeader h = decode_frame_header(rbuf_.data(), rbuf_.size());
  const std::size_t total = kFrameHeaderBytes + h.payload_len;
  if (rbuf_.size() < total) return false;
  verify_frame_payload(h, rbuf_.data() + kFrameHeaderBytes);
  type = h.type;
  payload.assign(rbuf_.begin() + kFrameHeaderBytes,
                 rbuf_.begin() + static_cast<std::ptrdiff_t>(total));
  rbuf_.erase(rbuf_.begin(),
              rbuf_.begin() + static_cast<std::ptrdiff_t>(total));
  ++frames_received_;
  return true;
}

bool FrameConn::read_available() {
  if (!sock_.valid()) return false;
  std::uint8_t chunk[65536];
  const ssize_t n = ::recv(sock_.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n < 0) {
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  }
  if (n == 0) return false;  // orderly EOF
  bytes_received_ += static_cast<std::uint64_t>(n);
  rbuf_.insert(rbuf_.end(), chunk, chunk + n);
  return true;
}

RecvStatus FrameConn::recv_frame(MsgType& type,
                                 std::vector<std::uint8_t>& payload,
                                 int timeout_ms, const WakeFd* wake) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
  for (;;) {
    if (peel_frame(type, payload)) return RecvStatus::kFrame;
    if (!sock_.valid()) return RecvStatus::kClosed;

    pollfd pfd[2] = {};
    pfd[0].fd = sock_.fd();
    pfd[0].events = POLLIN;
    if (wake != nullptr) {
      pfd[1].fd = wake->fd();
      pfd[1].events = POLLIN;
    }
    const int wait = remaining_ms(deadline, has_deadline);
    const int rc = ::poll(pfd, wake != nullptr ? 2 : 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw SocketError(errno_str("poll"));
    }
    if (rc == 0) return RecvStatus::kTimeout;
    if (wake != nullptr && (pfd[1].revents & POLLIN) != 0) {
      return RecvStatus::kWoken;
    }
    // ECONNRESET et al. as well as an orderly EOF.
    if (!read_available()) return RecvStatus::kClosed;
  }
}

}  // namespace asyncmg
