// Tiny POSIX TCP helpers for the service tools: the event loop
// (net/event_loop.hpp, under both ffp_serve and ffp_router) listens and
// dials its relay peers here, then does its own non-blocking I/O over
// these fds; clients and the elite migrator connect, and the blocking
// callers speak newline-delimited lines over a buffered reader.
// Loopback-oriented (the daemons bind 127.0.0.1 only — putting a
// partitioner on a public interface is a deployment's job, behind
// whatever auth it has); every failure is an ffp::Error with errno text,
// never a silent -1.
//
// Failure hardening (the deadline layer): reads and writes can carry
// poll()-based timeouts so one slow or dead peer can never wedge a
// blocking caller — LineReader::set_timeout_ms bounds each next() call
// (the client's response timeout), write_line takes a per-call deadline
// spanning all its partial writes. Deadline expiry throws
// ServiceError(Timeout); a reset/torn connection throws
// ServiceError(ConnLost) — both retryable codes, so callers can
// distinguish "try again" from real protocol errors. Every blocking call
// here is also a fault-injection point (util/fault.hpp): short reads, torn
// writes and dropped connections can be injected with FFP_FAULT for chaos
// testing.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "runtime/errors.hpp"
#include "util/check.hpp"

namespace ffp {

/// RAII file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  FdHandle(FdHandle&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FdHandle& operator=(FdHandle&& other) noexcept;
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  ~FdHandle() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on 127.0.0.1:port (port 0 → ephemeral). `bound_port`
/// receives the actual port.
FdHandle tcp_listen(int port, int* bound_port);

/// Connects to 127.0.0.1:port (TCP_NODELAY set).
FdHandle tcp_connect(int port);

/// Starts a non-blocking connect to 127.0.0.1:port (TCP_NODELAY set) and
/// returns without waiting: the socket is writable once the connect has
/// settled, and SO_ERROR then says how. Throws ffp::Error when the
/// connect fails at once (a refused loopback port usually does).
FdHandle tcp_connect_nonblocking(int port);

/// Turns Nagle off on a connected socket. Every socket that carries
/// protocol lines gets it: a line is one small write, and Nagle holding it
/// back behind a peer's delayed ACK costs up to 40 ms per response.
/// Best-effort (never throws): a socket that refuses it still works.
void set_nodelay(int fd);

/// Writes `line` plus '\n', handling partial writes. `timeout_ms` bounds
/// the WHOLE write (all partial sends against one deadline); <= 0 means
/// block forever. Throws ServiceError(Timeout) on deadline expiry,
/// ServiceError(ConnLost) on a reset/closed peer, ffp::Error otherwise.
void write_line(const FdHandle& fd, const std::string& line,
                double timeout_ms = 0);

/// Half-closes the write side: the peer's reader sees EOF while this end
/// can keep reading — how a client says "no more requests" and still
/// collects every response.
void shutdown_write(const FdHandle& fd);

/// Full-closes both directions without releasing the fd — how the event
/// loop's drain stops its listener, and how a test kicks loose a thread
/// parked in a blocking read. Best-effort (never throws): racing an
/// already-closed peer is the expected case.
void shutdown_both(const FdHandle& fd);

/// One connection's protocol as a line transport drives it, from the
/// transport's thread: ServiceSession (a shard's jobs) and the router's
/// relay session implement it, and the event loop feeds each client's
/// request lines to one.
class LineSession {
 public:
  using Emit = std::function<void(const std::string& line)>;

  LineSession() = default;
  LineSession(const LineSession&) = delete;
  LineSession& operator=(const LineSession&) = delete;
  virtual ~LineSession() = default;

  /// Handles one request line; the replies go out through the session's
  /// emit closure, now or later. Returns false for an honored shutdown
  /// request — the transport stops. Never throws on bad input.
  virtual bool handle_line(std::string_view line) = 0;
  /// True while the last request's answer is owed: the transport holds
  /// later requests (replies leave in request order) and does not count
  /// the wait as idleness.
  virtual bool result_pending() = 0;
  /// Work still owed; a read-closed connection is reaped at zero.
  virtual std::size_t pending_work() = 0;
};

/// Buffered newline-delimited reader over a connected socket.
class LineReader {
 public:
  explicit LineReader(const FdHandle& fd) : fd_(&fd) {}

  /// Per-next() read deadline in milliseconds; <= 0 (the default) blocks
  /// forever. When no complete line arrives within the deadline, next()
  /// throws ServiceError(Timeout) — the client's response timeout is
  /// exactly this knob.
  void set_timeout_ms(double ms) { timeout_ms_ = ms; }

  /// Reads the next line (without the '\n'); false on orderly EOF.
  /// `max_line_bytes` guards against a peer streaming an unbounded line.
  bool next(std::string& line, std::size_t max_line_bytes = 1u << 26);

 private:
  const FdHandle* fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
  double timeout_ms_ = 0;
};

}  // namespace ffp
