#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qkmps::parallel {

/// Socket transport: a duplex, message-oriented link over a connected
/// stream socket (TCP loopback or Unix-domain, or an in-process
/// socketpair), with each message carried as one length-prefixed,
/// version-tagged, checksummed frame. Message boundaries are preserved:
/// one send() arrives as exactly one recv, in FIFO order — the property
/// the serving shutdown barrier relies on. This is the project's one
/// message layer: it carries serve::RankShardedEngine's shard protocol,
/// whether a shard worker is a spawned process or a thread of the
/// engine's own process (DESIGN.md §1, "From ranks to processes"), and
/// the Fig. 4 round-robin ring of kernel/distributed_gram.cpp, whose rank
/// threads pass mps::save_mps frames over pair() links. Correctness of
/// the framing is load-bearing, so every malformed input — truncated header,
/// truncated payload, wrong magic, future version, oversized or hostile
/// length, corrupted bytes — must surface as qkmps::Error, never as a
/// crash, a hang, or a silently wrong message
/// (tests/test_socket_transport.cpp tortures exactly that).
///
/// Frame layout (20-byte header, each field copied with memcpy in native
/// byte order, little-endian on every supported target, so like the
/// util/binary_io.hpp payloads it is not portable to big-endian hosts):
///
///   offset  size  field
///        0     4  magic     0x52464B51 ("QKFR" as LE bytes)
///        4     2  version   kFrameVersion; a reader rejects newer
///        6     2  reserved  must be 0 in v1; readers reject nonzero, so
///                           assigning these bits requires a version bump
///        8     8  length    payload bytes that follow the header
///       16     4  checksum  FNV-1a-32 of the payload bytes
///
/// The length field is validated against a hard payload bound *before*
/// any allocation, so a hostile prefix cannot over-allocate; the
/// checksum turns corrupted-in-flight payloads into loud errors instead
/// of plausible-but-wrong ShardReply bits.

inline constexpr std::uint32_t kFrameMagic = 0x52464B51u;  // "QKFR"
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Default hard bound on one frame's payload. Generous against real
/// messages (a request is ~tens of doubles, a travelling MPS tens of KiB)
/// while keeping the worst hostile allocation far below
/// memory-exhaustion territory.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 26;  // 64 MiB

/// FNV-1a over `n` bytes, folded to 32 bits — cheap, dependency-free,
/// and plenty to catch truncation/corruption (this is an integrity
/// check, not an authenticity one).
std::uint32_t frame_checksum(const std::uint8_t* data, std::size_t n);

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kFrameVersion;
  std::uint16_t reserved = 0;
  std::uint64_t length = 0;
  std::uint32_t checksum = 0;
};

/// Decodes 20 header bytes (no validation — see validate_frame_header).
FrameHeader decode_frame_header(const std::uint8_t* bytes);

/// Encodes a header into its 20 wire bytes (exact inverse of
/// decode_frame_header — the one definition of the layout the send path
/// writes).
void encode_frame_header(const FrameHeader& header,
                         std::uint8_t out[kFrameHeaderBytes]);

/// A bound-and-listening server socket. Addresses:
///   "unix:<path>"       Unix-domain socket at <path> (unlinked on close)
///   "tcp:<ip>:<port>"   TCP on a loopback/interface ip; port 0 binds an
///                       ephemeral port (address() reports the real one)
class SocketListener {
 public:
  static SocketListener listen(const std::string& address);
  ~SocketListener();
  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&&) = delete;
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// The resolved address peers should connect() to (ephemeral TCP ports
  /// substituted in) — hand this to spawned worker processes.
  const std::string& address() const { return address_; }

  /// Accepts one connection, waiting at most `timeout`; nullptr on
  /// timeout, qkmps::Error on listener failure.
  std::unique_ptr<class SocketTransport> accept_for(
      std::chrono::milliseconds timeout);

 private:
  SocketListener(int fd, std::string address, std::string unlink_path);
  int fd_ = -1;
  std::string address_;
  std::string unlink_path_;  ///< unix socket file to remove on close
};

/// One end of a link over a connected stream socket. Thread safety:
/// none — one side of a link belongs to one loop (the router thread, or
/// the worker's main loop), while the other side may run concurrently.
///
/// Contracts:
///  - send() never blocks indefinitely on a slow peer reading; it throws
///    qkmps::Error if the link is broken (closed pipe, reset).
///  - try_recv() pops a complete queued message or returns nullopt
///    without waiting.
///  - recv_for(timeout) blocks until a message or the timeout; a zero or
///    negative timeout degrades to try_recv semantics (never "wait
///    forever", never a throw).
///  - A dead peer surfaces as qkmps::Error from the next call that needs
///    it, never as a hang or silently dropped bytes.
///
/// Every link — in-process socketpair links included — counts the frames
/// it moves into the process-wide obs::Registry counters
/// parallel.socket.{frames,bytes}_{sent,received}. Byte totals include
/// the 20-byte header of every frame: they measure what actually crossed
/// the socket, not just payload.
class SocketTransport {
 public:
  /// Connects to a SocketListener address, retrying until `timeout`
  /// (covers the race of connecting before the listener's backlog is
  /// ready, and of a spawned router/worker that is still booting).
  static std::unique_ptr<SocketTransport> connect(
      const std::string& address, std::chrono::milliseconds timeout);

  /// Two connected ends of one in-process link: socketpair(AF_UNIX,
  /// SOCK_STREAM), both fds close-on-exec. The same framing, limits and
  /// failure model as a listener/connect link — closing one end is an EOF
  /// the other sees as a dead peer — so a shard worker run on a thread
  /// behaves on the wire exactly like one run in a process.
  static std::pair<std::unique_ptr<SocketTransport>,
                   std::unique_ptr<SocketTransport>>
  pair();

  /// Adopts an already-connected fd (accept side).
  explicit SocketTransport(int fd,
                           std::uint64_t max_payload = kMaxFramePayload);
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Frames and writes the whole message; throws qkmps::Error if the
  /// peer is gone (EPIPE/reset) or the fd dies mid-write.
  void send(const std::vector<std::uint8_t>& payload);

  /// Non-blocking: drains whatever bytes the kernel has, returns one
  /// complete decoded frame payload if available. Throws qkmps::Error on
  /// a malformed frame or a peer that closed (cleanly or mid-frame) —
  /// on this duplex link an EOF is always a dead peer, and the caller
  /// (router loop / worker loop) owns the failure semantics.
  std::optional<std::vector<std::uint8_t>> try_recv();

  /// Timed receive; zero/negative timeout degrades to try_recv.
  std::optional<std::vector<std::uint8_t>> recv_for(
      std::chrono::microseconds timeout);

 private:
  void fill_from_socket(bool wait, std::chrono::microseconds timeout);
  std::optional<std::vector<std::uint8_t>> pop_frame();

  int fd_ = -1;
  std::uint64_t max_payload_;
  /// Receive buffer; bytes before rx_offset_ are already-consumed frames
  /// (compacted once the buffer drains, so popping N buffered frames is
  /// linear instead of a front-erase memmove per frame).
  std::vector<std::uint8_t> rx_;
  std::size_t rx_offset_ = 0;
  /// Peer sent EOF. Complete frames still in rx_ are delivered first;
  /// once the buffer runs dry, recv calls throw qkmps::Error.
  bool peer_closed_ = false;
};

}  // namespace qkmps::parallel
