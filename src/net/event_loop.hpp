// EventLoopServer — the repo's one accept loop: ffp_serve --listen and
// ffp_router are thin flag-parsing wrappers around it, and the chaos,
// shard and event-loop suites drive it in-process. One thread multiplexes
// thousands of client connections plus the relay connections their
// sessions dial; a connection costs no thread. What a connection speaks
// is a per-connection LineSession from a factory: service_loop() below
// gives ffp_serve's ServiceSession (results byte-identical to the
// transport-free stdio path at identical seeds), shard::Router its relay.
//
// Shape:
//   * Non-blocking accept with overload shedding: a client beyond
//     `max_clients` is told code "overloaded" (+ retry-after hint) and
//     closed at once, never queued.
//   * Per-connection read state machine: incremental recv into a line
//     buffer with LineReader's framing (newline-delimited, bounded line
//     length, a final unterminated request line still counts). Replies
//     leave in request order: while the session owes an answer
//     (result_pending) the requests behind it wait unread in the socket.
//   * Per-connection write state machine: responses append to an
//     outbound buffer under a lock — engine runner threads deliver
//     completions through the session's emit closure — and an eventfd
//     wakes the loop to flush. A connection that stops reading for
//     `write_timeout_ms` is dropped.
//   * Outbound peers (Peers below): a session may dial 127.0.0.1:port
//     without blocking the loop, connect included. A peer has the same
//     state machines, framing and write-stall drop as a client; its
//     lines and its close go to the owning session. Peers never count
//     toward `max_clients`, are never idle-reaped (a relay waiting on a
//     result is legitimately silent), and close with their owner.
//   * Idle reaping: a client with no request for `idle_timeout_ms` gets a
//     structured "timeout" error and is closed — unless it is waiting on
//     an answer it asked for. A clean client EOF keeps the connection
//     until its session's work is done and every reply has flushed.
//   * FFP_FAULT points fire here like in net.cpp: short_read, torn_write
//     and conn_drop on every connection, client or peer; accept_fail on
//     accept; delay_response before each request line.
//   * request_stop() is async-signal-safe (eventfd write). The drain:
//     stop accepting, flush what can be flushed, tear every session down
//     (its peers close with it), then run the drain hook. A session's
//     honored shutdown request drains the same way — one stop path.
#pragma once

#include <functional>
#include <memory>

#include "service/net.hpp"
#include "service/service.hpp"

namespace ffp {

struct EventLoopOptions {
  int port = 0;                ///< 127.0.0.1 port; 0 picks ephemeral
  unsigned max_clients = 1024; ///< live client connections; beyond, shed
  /// A client idle this long is reaped (structured `timeout` error, then
  /// close). <= 0 disables reaping.
  double idle_timeout_ms = 30000;
  /// How long a connection — client or peer — may sit with unflushed
  /// bytes before it is dropped as a dead reader. <= 0 waits forever.
  double write_timeout_ms = 10000;
  /// The retry-after hint shed connections are sent.
  double overload_retry_after_ms = 250;
};

/// One client connection's outbound relay connections, handed to its
/// session at creation. Loop thread only; handlers run on the loop thread.
class Peers {
 public:
  struct Handlers {
    std::function<void(const std::string& line)> on_line;
    /// The peer is gone (refused, reset, closed, stalled); `why` says
    /// which. Called at most once, and never after close().
    std::function<void(const std::string& why)> on_close;
  };

  Peers() = default;
  Peers(const Peers&) = delete;
  Peers& operator=(const Peers&) = delete;
  virtual ~Peers() = default;

  /// Dials 127.0.0.1:port without blocking and returns the peer's id,
  /// never reused. Throws ffp::Error when the connect fails at once; a
  /// later failure arrives through on_close.
  virtual int connect(int port, Handlers handlers) = 0;
  /// Queues one line (+'\n'); lines queued while the peer connects leave
  /// once it is up. Unknown ids are ignored.
  virtual void send(int peer, const std::string& line) = 0;
  /// Closes a peer without calling its handlers.
  virtual void close(int peer) = 0;
};

class EventLoopServer {
 public:
  using SessionFactory = std::function<std::unique_ptr<LineSession>(
      LineSession::Emit emit, Peers& peers)>;

  /// Binds the listener (throws ffp::Error when the port is taken).
  /// `stats` must outlive the server. `factory` makes each accepted
  /// client's session; its emit closure may be called from any thread.
  /// `on_drain` runs last in run(), after every session is gone.
  EventLoopServer(EventLoopOptions options, ServeStats& stats,
                  SessionFactory factory, std::function<void()> on_drain = {});
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  int port() const;

  /// Serves until request_stop() or a session's honored shutdown request,
  /// then drains. Call once, from the thread that owns the loop.
  void run();

  /// Async-signal-safe stop request (eventfd write); idempotent.
  void request_stop() noexcept;

 private:
  struct Loop;
  std::unique_ptr<Loop> loop_;
};

/// ffp_serve's loop: one ServiceSession per connection over `host`, with
/// async result delivery forced on (the loop thread never blocks on a
/// result or a session teardown), and a drain that shuts the host's
/// scheduler down — queued work is cancelled, running work finishes early
/// with best-so-far semantics. The host must outlive the server.
EventLoopServer service_loop(ServiceHost& host, EventLoopOptions options,
                             SessionPolicy policy = {});

}  // namespace ffp
