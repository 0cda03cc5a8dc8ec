// parallel/socket_transport.hpp: the frame codec and the socket-backed
// link. The codec carries every byte of the rank-sharded serving
// protocol across process boundaries, so the contract under torture is
// absolute: every malformed frame — truncated header, truncated payload,
// wrong magic, future version, nonzero reserved field, oversized or
// hostile length, flipped payload bits — surfaces as qkmps::Error; never
// a crash, a hang, or a silently wrong payload. The torture writes raw
// bytes into one end of a socketpair and reads them back through
// SocketTransport::recv_for, the decoder every shard link runs; the
// writer then closes, so a frame cut short reads as a peer that closed
// mid-frame. A byte-level fuzz loop sweeps single-byte corruptions over a
// valid frame to pin "error or identical bytes, no third outcome".

#include "parallel/socket_transport.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace qkmps::parallel {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> v;
  for (int x : xs) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

/// A raw AF_UNIX socketpair. The torture needs one end that is not a
/// SocketTransport, to write bytes no encoder would produce or to read
/// what send() produced. Setup failures throw std::system_error, never
/// qkmps::Error, so they cannot pass for an expected decode error.
std::array<int, 2> raw_socketpair() {
  int fds[2];
  // Test-only fds that live inside one test; nothing execs.
  // lint: allow(cloexec)
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::system_error(errno, std::generic_category(), "socketpair");
  return {fds[0], fds[1]};
}

/// Wraps a raw fd the way the library wraps the fds it creates: a
/// SocketTransport drains its socket until EAGAIN, so the fd must be
/// non-blocking.
std::unique_ptr<SocketTransport> adopt(
    int fd, std::uint64_t max_payload = kMaxFramePayload) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
    throw std::system_error(errno, std::generic_category(), "fcntl");
  return std::make_unique<SocketTransport>(fd, max_payload);
}

/// The bytes SocketTransport::send puts on the wire for `payload`.
std::string wire_bytes(const std::vector<std::uint8_t>& payload) {
  const auto [ours, peer] = raw_socketpair();
  adopt(ours)->send(payload);  // the temporary transport closes `ours`
  std::string bytes;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(peer, buf, sizeof buf)) > 0)
    bytes.append(buf, static_cast<std::size_t>(n));
  ::close(peer);
  return bytes;
}

/// Writes `bytes` from a raw peer that then closes, and reads one message
/// through SocketTransport::recv_for.
std::optional<std::vector<std::uint8_t>> recv_raw(
    const std::string& bytes, std::uint64_t max_payload = kMaxFramePayload) {
  const auto [ours, peer] = raw_socketpair();
  const std::unique_ptr<SocketTransport> link = adopt(ours, max_payload);
  const ssize_t written = ::write(peer, bytes.data(), bytes.size());
  const int write_errno = errno;
  ::close(peer);
  if (written != static_cast<ssize_t>(bytes.size()))
    throw std::system_error(write_errno, std::generic_category(), "write");
  return link->recv_for(std::chrono::microseconds(2'000'000));
}

/// What recv_raw throws for `bytes`, or "" when it decodes them.
std::string recv_error(const std::string& bytes,
                       std::uint64_t max_payload = kMaxFramePayload) {
  try {
    recv_raw(bytes, max_payload);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// Codec round trips.

TEST(FrameCodec, RoundTripsPayloadsIncludingEmpty) {
  auto [a, b] = SocketTransport::pair();
  const auto payload = bytes_of({1, 2, 3, 255, 0, 128});
  a->send(payload);
  a->send(std::vector<std::uint8_t>{});
  const auto back_a = b->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(back_a.has_value());
  EXPECT_EQ(*back_a, payload);
  const auto back_b = b->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(back_b.has_value());
  EXPECT_TRUE(back_b->empty());
  EXPECT_EQ(recv_raw(wire_bytes(payload)), payload);
}

TEST(FrameCodec, HeaderLayoutIsStable) {
  // The 20-byte header layout is wire contract (DESIGN.md §1); a reshuffle
  // would silently break cross-version deployments, so pin the offsets of
  // what send() writes.
  const std::string frame = wire_bytes(bytes_of({0xAB}));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 1);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(frame.data());
  const FrameHeader h = decode_frame_header(raw);
  EXPECT_EQ(h.magic, kFrameMagic);
  EXPECT_EQ(h.version, kFrameVersion);
  EXPECT_EQ(h.reserved, 0);
  EXPECT_EQ(h.length, 1u);
  EXPECT_EQ(h.checksum, frame_checksum(raw + kFrameHeaderBytes, 1));
  // Little-endian magic spells "QKFR" on the wire.
  EXPECT_EQ(frame.substr(0, 4), "QKFR");
}

// ---------------------------------------------------------------------
// Malformed frames: each one fails loudly, at the check that owns it.

TEST(FrameCodec, TruncatedHeaderThrows) {
  const std::string frame = wire_bytes(bytes_of({1, 2, 3}));
  for (std::size_t keep : {1u, 7u, 19u}) {
    const std::string why = recv_error(frame.substr(0, keep));
    EXPECT_TRUE(mentions(why, "closed mid-frame"))
        << "header cut at " << keep << ": " << why;
  }
}

TEST(FrameCodec, TruncatedPayloadThrows) {
  const std::string frame = wire_bytes(bytes_of({1, 2, 3, 4, 5}));
  for (std::size_t drop : {1u, 4u}) {
    const std::string why = recv_error(frame.substr(0, frame.size() - drop));
    EXPECT_TRUE(mentions(why, "closed mid-frame"))
        << "payload short by " << drop << ": " << why;
  }
}

TEST(FrameCodec, WrongMagicThrows) {
  std::string frame = wire_bytes(bytes_of({9}));
  frame[0] = 'X';
  const std::string why = recv_error(frame);
  EXPECT_TRUE(mentions(why, "bad frame magic")) << why;
}

TEST(FrameCodec, FutureVersionThrows) {
  std::string frame = wire_bytes(bytes_of({9}));
  frame[4] = static_cast<char>(kFrameVersion + 1);  // u16 LE low byte
  const std::string why = recv_error(frame);
  EXPECT_TRUE(mentions(why, "unsupported frame version")) << why;
}

TEST(FrameCodec, NonzeroReservedFieldThrows) {
  // The reserved bits are for a future version to assign; a v1 reader
  // that ignored them would misread such a frame.
  std::string frame = wire_bytes(bytes_of({9}));
  frame[7] = 0x01;  // u16 LE high byte of the reserved field
  const std::string why = recv_error(frame);
  EXPECT_TRUE(mentions(why, "reserved")) << why;
}

TEST(FrameCodec, OversizedLengthFailsBeforeAllocating) {
  // A header claiming a 2^56-byte payload must be refused on the length
  // bound itself, not left waiting for bytes that never come.
  FrameHeader header;
  header.length = std::uint64_t{1} << 56;
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  const std::string why = recv_error(
      std::string(reinterpret_cast<const char*>(raw), kFrameHeaderBytes));
  EXPECT_TRUE(mentions(why, "exceeds the bound")) << why;
}

TEST(FrameCodec, LengthJustOverTheBoundThrowsAtTheBound) {
  const std::string frame = wire_bytes(bytes_of({1, 2, 3, 4}));
  const std::string why = recv_error(frame, /*max_payload=*/3);
  EXPECT_TRUE(mentions(why, "exceeds the bound")) << why;
  EXPECT_EQ(recv_raw(frame, /*max_payload=*/4), bytes_of({1, 2, 3, 4}));
}

TEST(FrameCodec, CorruptedPayloadFailsTheChecksum) {
  std::string frame = wire_bytes(bytes_of({10, 20, 30, 40}));
  frame[kFrameHeaderBytes + 2] ^= 0x01;
  const std::string why = recv_error(frame);
  EXPECT_TRUE(mentions(why, "checksum mismatch")) << why;
}

TEST(FrameCodec, SingleByteFuzzNeverYieldsAWrongPayload) {
  // Flip every byte of a valid frame through several corruptions: the
  // outcome must be either qkmps::Error or the original payload bits
  // (a corrupted-then-restored byte). No crash, no hang, no silently
  // different payload — the "malformed frames fail loudly" contract.
  const auto payload =
      bytes_of({0, 1, 2, 3, 250, 251, 252, 253, 254, 255, 42, 7});
  const std::string frame = wire_bytes(payload);
  int errors = 0;
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::string corrupted = frame;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ flip);
      try {
        const auto got = recv_raw(corrupted);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, payload)
            << "byte " << pos << " xor " << int(flip)
            << " decoded to a different payload without an error";
      } catch (const Error&) {
        ++errors;  // the expected outcome for almost every corruption
      }
    }
  }
  EXPECT_GT(errors, 0);
}

TEST(FrameCodec, TruncationFuzzAlwaysReadsAsADeadPeer) {
  // On a duplex link every cut is a dead peer: no bytes at all is a
  // clean close, any other prefix is a close mid-frame.
  const std::string frame = wire_bytes(bytes_of({1, 2, 3, 4, 5, 6, 7, 8}));
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::string why = recv_error(frame.substr(0, keep));
    EXPECT_TRUE(mentions(why, keep == 0 ? "peer closed the connection"
                                        : "peer closed mid-frame"))
        << "kept " << keep << " bytes: " << why;
  }
}

// ---------------------------------------------------------------------
// The socket itself (Unix-domain loopback).

std::string test_socket_address(const char* tag) {
  return std::string("unix:/tmp/qkmps_socktest_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SocketTransport, RoundTripsFramesBothWays) {
  SocketListener listener =
      SocketListener::listen(test_socket_address("roundtrip"));
  auto client_fut = std::async(std::launch::async, [&] {
    return SocketTransport::connect(listener.address(),
                                    std::chrono::milliseconds(2000));
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  auto client = client_fut.get();

  const auto ping = bytes_of({1, 2, 3});
  const auto pong = bytes_of({4, 5, 6, 7});
  client->send(ping);
  const auto got_ping = server->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(got_ping.has_value());
  EXPECT_EQ(*got_ping, ping);
  server->send(pong);
  const auto got_pong = client->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(got_pong.has_value());
  EXPECT_EQ(*got_pong, pong);
}

TEST(SocketTransport, PreservesMessageBoundariesAndOrder) {
  SocketListener listener =
      SocketListener::listen(test_socket_address("order"));
  auto client_fut = std::async(std::launch::async, [&] {
    return SocketTransport::connect(listener.address(),
                                    std::chrono::milliseconds(2000));
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  auto client = client_fut.get();

  for (int i = 0; i < 50; ++i)
    client->send(bytes_of({i, i + 1, i + 2}));
  for (int i = 0; i < 50; ++i) {
    const auto got = server->recv_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes_of({i, i + 1, i + 2})) << "message " << i;
  }
  EXPECT_FALSE(server->try_recv().has_value());
}

TEST(SocketTransport, RecvForZeroAndNegativeTimeoutAreTryRecv) {
  SocketListener listener =
      SocketListener::listen(test_socket_address("timeout"));
  auto client_fut = std::async(std::launch::async, [&] {
    return SocketTransport::connect(listener.address(),
                                    std::chrono::milliseconds(2000));
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  auto client = client_fut.get();

  // Empty link: both degenerate timeouts return immediately.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(server->recv_for(std::chrono::microseconds(0)).has_value());
  EXPECT_FALSE(
      server->recv_for(std::chrono::microseconds(-1'000'000)).has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 0.5);

  // Queued message: zero timeout still delivers it (try_recv semantics).
  client->send(bytes_of({9}));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto got = server->recv_for(std::chrono::microseconds(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({9}));
}

TEST(SocketTransport, PeerCloseSurfacesAsErrorAfterBufferedFrames) {
  SocketListener listener =
      SocketListener::listen(test_socket_address("close"));
  auto client_fut = std::async(std::launch::async, [&] {
    return SocketTransport::connect(listener.address(),
                                    std::chrono::milliseconds(2000));
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  {
    auto client = client_fut.get();
    client->send(bytes_of({1}));
    client->send(bytes_of({2}));
  }  // client destroyed: socket closes after two queued frames

  // Frames sent before the close are delivered intact and in order...
  const auto a = server->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, bytes_of({1}));
  const auto b = server->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, bytes_of({2}));
  // ...then the dead peer surfaces as a loud error, not a hang/nullopt.
  EXPECT_THROW(server->recv_for(std::chrono::microseconds(1'000'000)), Error);
}

/// SocketTransport::pair is the in-process worker's link: the same
/// framed duplex contract as a listener/connect link, with both fds
/// close-on-exec (a worker process spawned later must not inherit them,
/// or a closed end would never read as EOF).
TEST(SocketTransport, PairIsAFramedDuplexLinkWithCloexecFds) {
  // The fds open now; the listing's own directory fd is closed by the
  // time fcntl probes it, so it drops out.
  const auto open_fds = [] {
    std::vector<int> listed;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
      listed.push_back(std::stoi(entry.path().filename().string()));
    std::set<int> open;
    for (int fd : listed)
      if (::fcntl(fd, F_GETFD) >= 0) open.insert(fd);
    return open;
  };
  const std::set<int> before = open_fds();
  auto [a, b] = SocketTransport::pair();
  std::size_t fresh = 0;
  for (int fd : open_fds()) {
    if (before.count(fd)) continue;
    ++fresh;
    EXPECT_TRUE(::fcntl(fd, F_GETFD) & FD_CLOEXEC)
        << "fd " << fd << " is inheritable";
  }
  EXPECT_EQ(fresh, 2u);

  for (int i = 0; i < 20; ++i) a->send(bytes_of({i, i + 1}));
  for (int i = 0; i < 20; ++i) {
    const auto got = b->recv_for(std::chrono::microseconds(2'000'000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes_of({i, i + 1})) << "message " << i;
  }
  b->send(bytes_of({7}));
  const auto back = a->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of({7}));
  EXPECT_FALSE(a->try_recv().has_value());

  // Closing one end is a dead peer at the other, never a hang.
  a.reset();
  EXPECT_THROW(b->recv_for(std::chrono::microseconds(1'000'000)), Error);
  EXPECT_THROW(b->send(bytes_of({1})), Error);
}

TEST(SocketTransport, FrameLargerThanTheSocketBufferArrivesWhole) {
  // A frame several times the kernel's socket buffer cannot go out in one
  // write: send() must carry its header and payload across partial writes
  // while the peer drains on another thread, and the next frame must
  // still start on a frame boundary.
  auto [a, b] = SocketTransport::pair();
  obs::Counter& bytes_sent =
      obs::Registry::global().counter("parallel.socket.bytes_sent");
  const std::uint64_t sent_before = bytes_sent.value();
  std::vector<std::uint8_t> big(6u << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>((i * 131u) ^ (i >> 16));
  auto reader = std::async(std::launch::async, [&b] {
    std::vector<std::vector<std::uint8_t>> got;
    for (int i = 0; i < 2; ++i) {
      auto frame = b->recv_for(std::chrono::microseconds(10'000'000));
      if (!frame) break;
      got.push_back(std::move(*frame));
    }
    return got;
  });
  a->send(big);
  a->send(bytes_of({1, 2, 3}));
  const auto got = reader.get();
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(got[0].size(), big.size());
  EXPECT_TRUE(got[0] == big);  // not EXPECT_EQ: no 6 MiB failure dump
  EXPECT_EQ(got[1], bytes_of({1, 2, 3}));
  // Only this test's thread sends, so the registry delta is its frames.
  EXPECT_EQ(bytes_sent.value() - sent_before,
            2 * kFrameHeaderBytes + big.size() + 3);
}

TEST(SocketTransport, ConnectTimesOutAgainstNobody) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(SocketTransport::connect(
                   test_socket_address("nobody-listening"),
                   std::chrono::milliseconds(200)),
               Error);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);
}

TEST(SocketTransport, TcpLoopbackEphemeralPortWorksToo) {
  SocketListener listener = SocketListener::listen("tcp:127.0.0.1:0");
  // The resolved address must carry the real ephemeral port.
  EXPECT_NE(listener.address(), "tcp:127.0.0.1:0");
  auto client_fut = std::async(std::launch::async, [&] {
    return SocketTransport::connect(listener.address(),
                                    std::chrono::milliseconds(2000));
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  auto client = client_fut.get();
  client->send(bytes_of({1, 2, 3, 4}));
  const auto got = server->recv_for(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({1, 2, 3, 4}));
}

TEST(SocketTransport, GarbageBytesOnTheWireThrowNotCrash) {
  // A peer that does not speak the protocol at all: raw bytes with no
  // QKFR magic, written straight to the fd (SocketTransport::send always
  // frames correctly, so the hostile writer has to go around it).
  SocketListener listener =
      SocketListener::listen(test_socket_address("garbage"));
  const std::string path =
      listener.address().substr(std::string("unix:").size());
  auto rogue_fut = std::async(std::launch::async, [&path] {
    // Rogue peer simulating a hostile client; the fd lives for
    // microseconds inside this test and nothing execs. lint: allow(cloexec)
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
    const char garbage[] = "NOTAFRAMEATALL, just bytes on the wire.";
    ASSERT_GT(::send(fd, garbage, sizeof garbage, 0), 0);
    ::close(fd);
  });
  auto server = listener.accept_for(std::chrono::milliseconds(2000));
  ASSERT_NE(server, nullptr);
  rogue_fut.get();
  EXPECT_THROW(server->recv_for(std::chrono::microseconds(2'000'000)), Error);
}

}  // namespace
}  // namespace qkmps::parallel
