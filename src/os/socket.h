// Framed message transport over Unix-domain sockets: the client/server and
// server/server communication substrate (paper §3, Figure 2).
//
// The paper's testbed was workstations on a LAN; here all peers are local
// processes, so each socket supports an injectable per-message latency to
// simulate network round-trip cost in benchmarks (see DESIGN.md §1.4).
// Global send counters let benches report messages-per-transaction, the
// metric callback-locking papers optimize.
//
// The API is layered (DESIGN.md §11): the *non-blocking* surface —
// TrySend/TryRecv over explicit continuation buffers, returning WouldBlock
// when the wire stalls mid-frame — is the one framing implementation; the
// blocking Send/Recv calls are thin wrappers that poll until the same
// continuations complete. The server's reactor drives the Try* surface on
// epoll-readiness; clients and tests keep the simple blocking calls.
#ifndef BESS_OS_SOCKET_H_
#define BESS_OS_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace bess {

/// One framed message: a small type tag, a pipelining correlation id, a
/// request deadline, and an opaque payload. Replies echo the request's id so
/// a connection can carry many in-flight RPCs (req_id 0 = unpipelined
/// request/response). `deadline_ms` is the sender's remaining time budget
/// (relative, so peers need no clock agreement): 0 = no deadline; a server
/// sheds queued work whose budget expired before dispatch instead of
/// executing it (DESIGN.md §12).
struct Message {
  uint16_t type = 0;
  uint64_t req_id = 0;
  uint32_t deadline_ms = 0;
  std::string payload;
};

/// Unsent framed bytes of one or more queued messages. An explicit
/// continuation: TrySend flushes from it until the wire blocks, and the
/// caller retries the same continuation when the socket becomes writable.
struct SendContinuation {
  std::string buf;  ///< framed bytes (header + payload per message)
  size_t off = 0;   ///< bytes already on the wire

  bool empty() const { return off >= buf.size(); }
  size_t pending_bytes() const { return buf.size() - off; }
  void clear() {
    buf.clear();
    off = 0;
  }
};

/// Partially received frame. TryRecv accumulates into it across calls until
/// a whole message is available.
struct RecvContinuation {
  std::string buf;      ///< raw bytes of the current frame so far
  size_t target = 0;    ///< bytes needed before the next parse step (0 = init)
  bool have_header = false;

  bool mid_frame() const { return !buf.empty(); }
  void clear() {
    buf.clear();
    target = 0;
    have_header = false;
  }
};

/// A connected, bidirectional, message-framed socket. Move-only.
/// Thread-compatible: concurrent Send from multiple threads must be
/// externally serialized, likewise Recv.
class MsgSocket {
 public:
  /// Wire frame header: u32 payload length, u16 type, u64 request id,
  /// u32 deadline budget in ms (0 = none).
  static constexpr size_t kHeaderSize = 18;

  MsgSocket() = default;
  ~MsgSocket();
  MsgSocket(MsgSocket&& other) noexcept;
  MsgSocket& operator=(MsgSocket&& other) noexcept;
  MsgSocket(const MsgSocket&) = delete;
  MsgSocket& operator=(const MsgSocket&) = delete;

  /// Connects to a listening socket at `path`.
  static Result<MsgSocket> Connect(const std::string& path);

  /// Creates a connected socketpair (for in-process or fork-based peers).
  static Status Pair(MsgSocket* a, MsgSocket* b);

  bool valid() const { return fd_ >= 0; }

  // ---- non-blocking surface (the framing implementation) -------------------

  /// Appends one framed message to `cont` (no I/O, never blocks). Counts
  /// toward TotalMessagesSent. Several messages may be queued before a
  /// flush; they leave the wire back-to-back.
  static void QueueFrame(uint16_t type, uint64_t req_id, Slice payload,
                         SendContinuation* cont, uint32_t deadline_ms = 0);

  /// Writes as much of `cont` as the wire accepts. OK = continuation fully
  /// flushed; WouldBlock = partial progress, retry when writable (fault
  /// point "sock.trysend": a kFail spec with code kWouldBlock simulates
  /// EAGAIN, a kShortWrite spec lets only a prefix through per call).
  Status TrySend(SendContinuation* cont);

  /// Reads whatever is available into `cont`; OK when a complete message
  /// was assembled into `out` (continuation resets for the next frame).
  /// WouldBlock = frame still incomplete; Protocol on clean peer close.
  /// Fault point "sock.tryrecv".
  Status TryRecv(Message* out, RecvContinuation* cont);

  /// Switches O_NONBLOCK. The blocking wrappers work in either mode (they
  /// poll on WouldBlock).
  Status SetNonBlocking(bool on);

  // ---- blocking wrappers ---------------------------------------------------

  /// Sends one message (applies the simulated latency first); blocks until
  /// the whole frame is on the wire. Thin wrapper over QueueFrame+TrySend.
  Status Send(uint16_t type, Slice payload, uint64_t req_id = 0,
              uint32_t deadline_ms = 0);

  /// Receives one message; blocks. Returns Protocol status on peer close.
  /// Thin wrapper over TryRecv.
  Result<Message> Recv();

  /// Receives one message if available within `timeout_ms`; kBusy on
  /// timeout. A negative timeout waits forever (poll-first: the fault point
  /// "sock.recv" is only consulted once data or close is pending).
  Result<Message> RecvTimeout(int timeout_ms);

  /// Simulated one-way latency added before each send, in microseconds.
  void set_simulated_latency_us(uint32_t us) { latency_us_ = us; }

  /// Identity string passed to fault injection as the detail (Connect sets
  /// it to the peer path; accepted/pair sockets default to empty). Lets a
  /// FaultSpec.detail_filter target e.g. only client-side sockets.
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  int fd() const { return fd_; }

  void Close();

  /// Shuts the connection down (both directions) without closing the fd:
  /// unblocks a thread parked in Recv on this socket from another thread.
  void Shutdown();

  /// Process-wide count of messages sent (benchmark metric).
  static uint64_t TotalMessagesSent();
  static void ResetMessageCounter();

 private:
  friend class MsgListener;
  explicit MsgSocket(int fd) : fd_(fd) {}

  int fd_ = -1;
  uint32_t latency_us_ = 0;
  std::string name_;
};

/// A listening Unix-domain socket accepting MsgSocket connections.
class MsgListener {
 public:
  MsgListener() = default;
  ~MsgListener();
  MsgListener(MsgListener&& other) noexcept;
  MsgListener& operator=(MsgListener&& other) noexcept;
  MsgListener(const MsgListener&) = delete;
  MsgListener& operator=(const MsgListener&) = delete;

  /// Binds and listens at `path`. A stale socket file (no live listener) is
  /// removed; if a live server answers a probe connect, returns kBusy rather
  /// than yanking the socket out from under it.
  static Result<MsgListener> Listen(const std::string& path);

  /// Accepts one connection; blocks.
  Result<MsgSocket> Accept();

  /// Accepts with a timeout: kBusy if nothing arrives within `timeout_ms`
  /// (lets accept loops poll a stop flag; plain shutdown()/close() does not
  /// reliably unblock accept on all kernels).
  Result<MsgSocket> AcceptTimeout(int timeout_ms);

  /// Accepts without blocking: WouldBlock when no connection is pending.
  /// The reactor drains pending connections on epoll readiness with this.
  Result<MsgSocket> TryAccept();

  /// Switches O_NONBLOCK on the listening fd (for epoll-driven accept).
  Status SetNonBlocking(bool on);

  /// Unblocks a thread parked in Accept (call before Close from another
  /// thread).
  void Shutdown();

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  MsgListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace bess

#endif  // BESS_OS_SOCKET_H_
