#include "parallel/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace qkmps::parallel {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  QKMPS_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed");
  QKMPS_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// Every fd this layer creates must be close-on-exec: the serving engine
/// posix_spawn's worker processes, and a worker that inherits the
/// router's listener or a sibling's connection fd delays peer-EOF death
/// detection (the sibling's dup keeps the socket open) and leaks fds per
/// respawn generation. SOCK_CLOEXEC/accept4 set the flag atomically where
/// available; this fcntl fallback covers the rest.
[[maybe_unused]] void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  QKMPS_CHECK_MSG(flags >= 0, "fcntl(F_GETFD) failed");
  QKMPS_CHECK_MSG(::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0,
                  "fcntl(F_SETFD, FD_CLOEXEC) failed");
}

int cloexec_socket(int domain) {
#ifdef SOCK_CLOEXEC
  return ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
#else
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd >= 0) set_cloexec(fd);
  return fd;
#endif
}

/// Both ends of an in-process link (SocketTransport::pair).
void cloexec_socketpair(int fds[2]) {
#ifdef SOCK_CLOEXEC
  const int rc = ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds);
#else
  const int rc = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
  if (rc == 0) {
    set_cloexec(fds[0]);
    set_cloexec(fds[1]);
  }
#endif
  if (rc != 0) throw_errno("socketpair(AF_UNIX)");
}

int cloexec_accept(int listener_fd) {
#if defined(SOCK_CLOEXEC) && defined(__linux__)
  return ::accept4(listener_fd, nullptr, nullptr, SOCK_CLOEXEC);
#else
  const int fd = ::accept(listener_fd, nullptr, nullptr);
  if (fd >= 0) set_cloexec(fd);
  return fd;
#endif
}

constexpr const char* kUnixPrefix = "unix:";
constexpr const char* kTcpPrefix = "tcp:";

/// Writes every byte of `iov[0..count)` to `fd` with sendmsg, advancing
/// the vectors past each partial write.
void send_all(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc > 0) {
      auto left = static_cast<std::size_t>(rc);
      while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
        left -= msg.msg_iov->iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
      if (left > 0) {
        auto* base = static_cast<std::uint8_t*>(msg.msg_iov->iov_base);
        msg.msg_iov->iov_base = base + left;
        msg.msg_iov->iov_len -= left;
      }
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: wait for drain, bounded so a wedged peer
      // surfaces as an error instead of a frozen router loop. An
      // interrupted poll is retried — a stray signal must not demote a
      // healthy peer to dead.
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, 30'000);
      if (ready < 0 && errno == EINTR) continue;
      QKMPS_CHECK_MSG(ready > 0, "send stalled: peer not draining");
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    throw_errno("send: peer gone");
  }
}

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  QKMPS_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long (" << path.size() << " bytes): "
                                                << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const std::string& spec) {
  // spec is "<ip>:<port>".
  const std::size_t colon = spec.rfind(':');
  QKMPS_CHECK_MSG(colon != std::string::npos,
                  "tcp address needs ip:port, got: " << spec);
  const std::string ip = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  QKMPS_CHECK_MSG(::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) == 1,
                  "bad IPv4 address: " << ip);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  QKMPS_CHECK_MSG(end != nullptr && *end == '\0' && port >= 0 &&
                      port <= 65535,
                  "bad tcp port: " << port_str);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

}  // namespace

// ---------------------------------------------------------------------
// Frame codec.

std::uint32_t frame_checksum(const std::uint8_t* data, std::size_t n) {
  // FNV-1a 64, folded to 32 by xoring the halves.
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

FrameHeader decode_frame_header(const std::uint8_t* bytes) {
  FrameHeader h;
  std::memcpy(&h.magic, bytes + 0, sizeof h.magic);
  std::memcpy(&h.version, bytes + 4, sizeof h.version);
  std::memcpy(&h.reserved, bytes + 6, sizeof h.reserved);
  std::memcpy(&h.length, bytes + 8, sizeof h.length);
  std::memcpy(&h.checksum, bytes + 16, sizeof h.checksum);
  return h;
}

void encode_frame_header(const FrameHeader& header,
                         std::uint8_t out[kFrameHeaderBytes]) {
  std::memcpy(out + 0, &header.magic, sizeof header.magic);
  std::memcpy(out + 4, &header.version, sizeof header.version);
  std::memcpy(out + 6, &header.reserved, sizeof header.reserved);
  std::memcpy(out + 8, &header.length, sizeof header.length);
  std::memcpy(out + 16, &header.checksum, sizeof header.checksum);
}

namespace {

/// Throws qkmps::Error on wrong magic, a version newer than this build
/// speaks, a nonzero reserved field, or a length over `max_payload`.
void validate_frame_header(const FrameHeader& header,
                           std::uint64_t max_payload) {
  QKMPS_CHECK_MSG(header.magic == kFrameMagic,
                  "bad frame magic 0x" << std::hex << header.magic
                                       << " (not a QKFR frame)");
  QKMPS_CHECK_MSG(header.version == kFrameVersion,
                  "unsupported frame version " << header.version
                                               << " (this build speaks "
                                               << kFrameVersion << ")");
  QKMPS_CHECK_MSG(header.reserved == 0,
                  "nonzero reserved frame field " << header.reserved);
  QKMPS_CHECK_MSG(header.length <= max_payload,
                  "frame payload length " << header.length
                                          << " exceeds the bound of "
                                          << max_payload << " bytes");
}

/// Throws qkmps::Error when the payload's checksum disagrees with the
/// header's.
void verify_frame_checksum(const FrameHeader& header,
                           const std::uint8_t* payload) {
  const std::uint32_t sum =
      frame_checksum(payload, static_cast<std::size_t>(header.length));
  QKMPS_CHECK_MSG(sum == header.checksum,
                  "frame checksum mismatch (header 0x"
                      << std::hex << header.checksum << ", payload 0x" << sum
                      << ")");
}

}  // namespace

// ---------------------------------------------------------------------
// SocketListener.

SocketListener::SocketListener(int fd, std::string address,
                               std::string unlink_path)
    : fd_(fd),
      address_(std::move(address)),
      unlink_path_(std::move(unlink_path)) {}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_),
      address_(std::move(other.address_)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.fd_ = -1;
  other.unlink_path_.clear();
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

SocketListener SocketListener::listen(const std::string& address) {
  if (has_prefix(address, kUnixPrefix)) {
    const std::string path = address.substr(std::strlen(kUnixPrefix));
    const sockaddr_un addr = make_unix_addr(path);
    const int fd = cloexec_socket(AF_UNIX);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(path.c_str());  // a stale socket file from a dead process
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      throw_errno("bind(" + address + ")");
    }
    if (::listen(fd, 16) != 0) {
      ::close(fd);
      throw_errno("listen(" + address + ")");
    }
    set_nonblocking(fd);
    return SocketListener(fd, address, path);
  }
  QKMPS_CHECK_MSG(has_prefix(address, kTcpPrefix),
                  "address must start with unix: or tcp:, got: " << address);
  sockaddr_in addr = make_tcp_addr(address.substr(std::strlen(kTcpPrefix)));
  const int fd = cloexec_socket(AF_INET);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw_errno("bind(" + address + ")");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    throw_errno("listen(" + address + ")");
  }
  // Report the real port for ephemeral binds.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof ip);
  const std::string resolved = std::string(kTcpPrefix) + ip + ":" +
                               std::to_string(ntohs(bound.sin_port));
  set_nonblocking(fd);
  return SocketListener(fd, resolved, "");
}

std::unique_ptr<SocketTransport> SocketListener::accept_for(
    std::chrono::milliseconds timeout) {
  QKMPS_CHECK_MSG(fd_ >= 0, "accept on a closed listener");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const int cfd = cloexec_accept(fd_);
    if (cfd >= 0) {
      set_nonblocking(cfd);
      return std::make_unique<SocketTransport>(cfd);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw_errno("accept(" + address_ + ")");
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::steady_clock::duration::zero())
      return nullptr;
    pollfd pfd{fd_, POLLIN, 0};
    const int ms = static_cast<int>(std::min<long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
                .count() +
            1,
        1000));
    ::poll(&pfd, 1, ms);
  }
}

// ---------------------------------------------------------------------
// SocketTransport.

SocketTransport::SocketTransport(int fd, std::uint64_t max_payload)
    : fd_(fd), max_payload_(max_payload) {
  QKMPS_CHECK_MSG(fd_ >= 0, "SocketTransport needs a connected fd");
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SocketTransport> SocketTransport::connect(
    const std::string& address, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string last_error;
  do {
    int fd = -1;
    int rc = -1;
    if (has_prefix(address, kUnixPrefix)) {
      const sockaddr_un addr =
          make_unix_addr(address.substr(std::strlen(kUnixPrefix)));
      fd = cloexec_socket(AF_UNIX);
      if (fd < 0) throw_errno("socket(AF_UNIX)");
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } else {
      QKMPS_CHECK_MSG(has_prefix(address, kTcpPrefix),
                      "address must start with unix: or tcp:, got: "
                          << address);
      const sockaddr_in addr =
          make_tcp_addr(address.substr(std::strlen(kTcpPrefix)));
      fd = cloexec_socket(AF_INET);
      if (fd < 0) throw_errno("socket(AF_INET)");
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    }
    if (rc == 0) {
      set_nonblocking(fd);
      return std::make_unique<SocketTransport>(fd);
    }
    last_error = std::strerror(errno);
    ::close(fd);
    // The listener may still be booting (spawned-process race); retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < deadline);
  throw Error("connect(" + address + ") timed out: " + last_error);
}

std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>>
SocketTransport::pair() {
  int fds[2];
  cloexec_socketpair(fds);
  auto a = std::make_unique<SocketTransport>(fds[0]);
  auto b = std::make_unique<SocketTransport>(fds[1]);
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  return {std::move(a), std::move(b)};
}

void SocketTransport::send(const std::vector<std::uint8_t>& payload) {
  QKMPS_CHECK_MSG(fd_ >= 0, "send on a closed transport");
  // Header on the stack, payload straight from the caller's buffer — the
  // per-message hot path makes no intermediate copies of either, and a
  // frame the kernel takes whole costs one syscall.
  FrameHeader header;
  header.length = payload.size();
  header.checksum = frame_checksum(payload.data(), payload.size());
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  // sendmsg only reads the payload; iovec just has no const member.
  iovec iov[2] = {{raw, kFrameHeaderBytes},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  send_all(fd_, iov, payload.empty() ? 1 : 2);
  static obs::Counter& frames =
      obs::Registry::global().counter("parallel.socket.frames_sent");
  static obs::Counter& bytes =
      obs::Registry::global().counter("parallel.socket.bytes_sent");
  frames.add();
  bytes.add(kFrameHeaderBytes + payload.size());
}

void SocketTransport::fill_from_socket(bool wait,
                                       std::chrono::microseconds timeout) {
  // Compact the consumed prefix before appending: one amortized memmove
  // per refill instead of one per popped frame, and the buffer cannot
  // grow without bound across refills.
  if (rx_offset_ > 0) {
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<long>(rx_offset_));
    rx_offset_ = 0;
  }
  if (wait) {
    pollfd pfd{fd_, POLLIN, 0};
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(timeout)
            .count();
    ::poll(&pfd, 1, static_cast<int>(std::clamp<long long>(ms, 0, 60'000)));
  }
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      rx_.insert(rx_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      // Remember the close but let already-buffered complete frames be
      // delivered first; the throw happens when the buffer runs dry.
      peer_closed_ = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    throw_errno("recv");
  }
}

std::optional<std::vector<std::uint8_t>> SocketTransport::pop_frame() {
  const std::size_t available = rx_.size() - rx_offset_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = rx_.data() + rx_offset_;
  const FrameHeader header = decode_frame_header(head);
  validate_frame_header(header, max_payload_);  // throws on hostile bytes
  const std::size_t total =
      kFrameHeaderBytes + static_cast<std::size_t>(header.length);
  if (available < total) return std::nullopt;
  std::vector<std::uint8_t> payload(head + kFrameHeaderBytes, head + total);
  verify_frame_checksum(header, payload.data());
  rx_offset_ += total;
  if (rx_offset_ == rx_.size()) {
    rx_.clear();
    rx_offset_ = 0;
  }
  static obs::Counter& frames =
      obs::Registry::global().counter("parallel.socket.frames_received");
  static obs::Counter& bytes =
      obs::Registry::global().counter("parallel.socket.bytes_received");
  frames.add();
  bytes.add(total);
  return payload;
}

std::optional<std::vector<std::uint8_t>> SocketTransport::try_recv() {
  QKMPS_CHECK_MSG(fd_ >= 0, "recv on a closed transport");
  if (auto frame = pop_frame()) return frame;
  if (!peer_closed_) fill_from_socket(/*wait=*/false, std::chrono::microseconds(0));
  if (auto frame = pop_frame()) return frame;
  if (peer_closed_)
    throw Error(rx_.size() == rx_offset_ ? "peer closed the connection"
                                         : "peer closed mid-frame");
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> SocketTransport::recv_for(
    std::chrono::microseconds timeout) {
  // Zero/negative degrade to try_recv semantics (pinned in
  // tests/test_socket_transport.cpp): a computed, possibly non-positive
  // remainder of a deadline must never read as "wait forever".
  if (timeout <= std::chrono::microseconds::zero()) return try_recv();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto frame = try_recv()) return frame;
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining <= std::chrono::microseconds::zero()) return std::nullopt;
    fill_from_socket(/*wait=*/true, remaining);
  }
}

}  // namespace qkmps::parallel
