// EventLoopServer — the service's one TCP front end (ffp_serve --listen
// is a thin flag-parsing wrapper around it, and the chaos, shard and
// event-loop suites drive it in-process): one thread multiplexing
// thousands of connections onto the shared ServiceHost engine. Results
// are byte-identical to the transport-free stdio path at identical seeds,
// and a connection costs no thread — the process runs the loop thread
// plus the engine's runners, nothing per client.
//
// Shape:
//   * Non-blocking accept (level-triggered epoll on the listener), with
//     overload shedding: a connection beyond `max_clients` is told code
//     "overloaded" (+ retry-after hint) and closed immediately, never
//     queued — a full server degrades into fast structured rejections
//     instead of silent connect-then-hang.
//   * Per-connection read state machine: incremental recv into a line
//     buffer with LineReader's framing semantics (newline-delimited,
//     bounded line length, a final unterminated line still counts), each
//     complete line fed to the connection's ServiceSession. Replies leave
//     in request order: a result op whose job is still running holds
//     back the requests behind it (they wait unread in the socket) until
//     it is answered — the loop thread itself never blocks.
//   * Per-connection write state machine: responses append to an
//     outbound buffer under a lock — engine runner threads deliver
//     completions there via the session's async terminal callbacks — and
//     an eventfd wakeup tells the loop to flush. EPOLLOUT handles the
//     slow-reader tail; a peer that stops reading for `write_timeout_ms`
//     is dropped (the write-deadline policy, loop edition).
//   * Idle reaping: no request for `idle_timeout_ms` → structured
//     "timeout" error, close — a silent client cannot hold a slot. A
//     client waiting on the result it asked for is not idle.
//   * Clean client EOF keeps the connection until its jobs finish and
//     every claimed result has flushed (piped-batch semantics), without
//     blocking the loop or polling the closed socket.
//   * FFP_FAULT points fire here exactly like in net.cpp: short_read,
//     torn_write, conn_drop, accept_fail, delay_response — the chaos
//     suite injects them into this transport.
//   * request_stop() is async-signal-safe (eventfd write) — ffp_serve
//     points SIGTERM/SIGINT at it. The drain: stop accepting, tear
//     sessions down (cancelling their jobs), then shut the scheduler
//     down: queued work is cancelled, running work finishes early with
//     best-so-far semantics. An allowed client {"op":"shutdown"} drains
//     the same way — there is exactly one stop path.
#pragma once

#include <memory>

#include "service/net.hpp"
#include "service/service.hpp"

namespace ffp {

struct EventLoopOptions {
  int port = 0;                ///< 127.0.0.1 port; 0 picks ephemeral
  unsigned max_clients = 1024; ///< live connections; beyond this, shed
  /// A connection idle this long is reaped (structured `timeout` error,
  /// then close). <= 0 disables reaping.
  double idle_timeout_ms = 30000;
  /// How long a connection may sit with unflushed response bytes before
  /// it is dropped as a dead reader. <= 0 waits forever.
  double write_timeout_ms = 10000;
  /// The retry-after hint shed connections are sent.
  double overload_retry_after_ms = 250;
  /// Per-connection policy. async_results is forced on — the loop thread
  /// never blocks on a result or a session teardown.
  SessionPolicy session;
};

class EventLoopServer {
 public:
  /// Binds the listener (throws ffp::Error when the port is taken). The
  /// host must outlive the server.
  EventLoopServer(ServiceHost& host, EventLoopOptions options);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  int port() const { return port_; }

  /// Serves until a stop: request_stop(), or an allowed client shutdown
  /// op. Drains before returning. Call once, from the thread that owns
  /// the loop.
  void run();

  /// Async-signal-safe stop request (eventfd write); idempotent.
  void request_stop() noexcept;

 private:
  struct Conn;
  struct LoopState;

  ServiceHost& host_;
  EventLoopOptions options_;
  FdHandle listener_;
  int port_ = 0;
  FdHandle epoll_;
  FdHandle wake_;  ///< completion wakeup (runner threads write)
  FdHandle stop_;  ///< stop request (signal handlers write)
  std::shared_ptr<LoopState> state_;
};

}  // namespace ffp
