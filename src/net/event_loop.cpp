#include "net/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "util/fault.hpp"
#include "util/timer.hpp"

namespace ffp {

namespace {

/// LineReader's framing bound, loop edition: a peer streaming an
/// unbounded line is a protocol error, not an allocation.
constexpr std::size_t kMaxLineBytes = 1u << 26;

/// recv() chunk per iteration; level-triggered epoll re-notifies, so the
/// size only trades syscalls against loop fairness.
constexpr std::size_t kReadChunk = 1u << 14;

/// Read iterations per readiness event before yielding back to the loop —
/// one firehose connection must not starve the other thousands.
constexpr int kMaxReadsPerEvent = 64;

FdHandle make_eventfd() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  FFP_CHECK(fd >= 0, "eventfd creation failed: errno ", errno);
  return FdHandle(fd);
}

void drain_eventfd(int fd) {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd, &count, sizeof(count));
}

/// Signals an eventfd. write(2) is async-signal-safe; EAGAIN means a
/// wakeup is already pending — exactly as good.
void signal_eventfd(int fd) noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

/// One connection's state machines — a client (it has a session) or a
/// peer a client's session dialed. The loop thread owns everything except
/// a client's outbound buffer, which engine runner threads append to
/// through the session's emit closure (guarded by out_mu + the dead
/// flag); sessions and peers are created and destroyed on the loop thread.
struct Conn {
  FdHandle fd;
  int raw_fd = -1;  ///< survives fd.reset() for map bookkeeping

  // Read side (loop thread only).
  std::string inbuf;
  std::size_t inpos = 0;  ///< start of the first unconsumed byte
  bool read_closed = false;
  /// The session owes an answer: later requests stay unread (and
  /// unprocessed) until it is given, and the idle clock is stopped.
  bool awaiting_result = false;
  double last_activity_ms = 0;
  std::uint32_t interest = EPOLLIN;  ///< current epoll event mask

  // Write side (shared with emit closures).
  std::mutex out_mu;
  std::string outbuf;
  std::size_t outpos = 0;
  bool dead = false;  ///< set under out_mu; emits become drops
  double write_stall_since_ms = -1;  ///< -1: not stalled

  // A client: its session and the peers it dialed, by id.
  std::unique_ptr<Peers> peer_api;
  std::unique_ptr<LineSession> session;
  std::map<int, std::shared_ptr<Conn>> peers;

  // A peer: its id, whose it is and where its lines go.
  int peer_id = 0;  ///< 0: a client
  bool connecting = false;  ///< EPOLLOUT + SO_ERROR settle the connect
  std::weak_ptr<Conn> owner;
  Peers::Handlers handlers;
};

using ConnPtr = std::shared_ptr<Conn>;

/// What the emit closures share with the loop: the dirty list (which
/// connections grew response bytes) and the wakeup fd. Held by
/// shared_ptr so a straggler closure on a runner thread outlives run().
struct LoopState {
  std::mutex mu;
  std::vector<std::weak_ptr<Conn>> dirty;
  int wake_fd = -1;

  void mark_dirty(const std::weak_ptr<Conn>& conn) {
    {
      std::lock_guard lock(mu);
      dirty.push_back(conn);
    }
    signal_eventfd(wake_fd);
  }

  std::vector<std::weak_ptr<Conn>> take_dirty() {
    std::lock_guard lock(mu);
    return std::exchange(dirty, {});
  }
};

bool has_unflushed(Conn& c) {
  std::lock_guard lock(c.out_mu);
  return c.outpos < c.outbuf.size();
}

}  // namespace

struct EventLoopServer::Loop {
  Loop(EventLoopOptions o, ServeStats& s, SessionFactory f,
       std::function<void()> d)
      : options(o),
        stats(s),
        factory(std::move(f)),
        on_drain(std::move(d)),
        listener(tcp_listen(options.port, &port)),
        epoll(::epoll_create1(EPOLL_CLOEXEC)),
        wake(make_eventfd()),
        stop(make_eventfd()),
        state(std::make_shared<LoopState>()) {
    FFP_CHECK(options.max_clients >= 1,
              "EventLoopServer needs max_clients >= 1");
    const int flags = ::fcntl(listener.get(), F_GETFL, 0);
    FFP_CHECK(flags >= 0 &&
                  ::fcntl(listener.get(), F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(O_NONBLOCK) failed: errno ", errno);
    FFP_CHECK(epoll.valid(), "epoll_create1 failed: errno ", errno);
    state->wake_fd = wake.get();
  }

  /// The Peers a client's session sees: thin forwarding to the loop.
  struct PeerApi final : Peers {
    PeerApi(Loop& l, std::weak_ptr<Conn> o) : loop(l), owner(std::move(o)) {}

    int connect(int port, Handlers handlers) override {
      return loop.connect_peer(owner.lock(), port, std::move(handlers));
    }
    void send(int id, const std::string& line) override {
      if (const ConnPtr peer = find(id)) {
        {
          std::lock_guard lock(peer->out_mu);
          peer->outbuf += line;
          peer->outbuf += '\n';
        }
        // EPOLLOUT flushes it: no send, and so no failure callback,
        // from inside the session that queued the line.
        loop.settle_interest(peer);
      }
    }
    void close(int id) override {
      if (const ConnPtr peer = find(id)) loop.drop(peer);
    }
    ConnPtr find(int id) const {
      const ConnPtr c = owner.lock();
      const auto it = c->peers.find(id);
      return it == c->peers.end() ? nullptr : it->second;
    }

    Loop& loop;
    std::weak_ptr<Conn> owner;
  };

  void epoll_add(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    FFP_CHECK(::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(ADD) failed: errno ", errno);
  }

  std::vector<ConnPtr> snapshot() const {
    std::vector<ConnPtr> out;
    out.reserve(conns.size());
    for (const auto& entry : conns) out.push_back(entry.second);
    return out;
  }

  /// Emits go dead, the fd leaves the epoll set and closes. A client's
  /// peers go first, silently, then its session (cancelling its jobs,
  /// no-wait). The Conn shell may outlive this (an emit closure or the
  /// caller can hold the last reference); everything left in it is
  /// inert. By value: the map entries it erases may be `c` itself.
  void drop(ConnPtr c) {
    {
      std::lock_guard lock(c->out_mu);
      if (c->dead) return;
      c->dead = true;
    }
    (void)::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, c->raw_fd, nullptr);
    for (const auto& entry : std::exchange(c->peers, {})) drop(entry.second);
    c->session.reset();
    c->fd.reset();
    conns.erase(c->raw_fd);
    if (c->peer_id != 0) {
      if (const ConnPtr owner = c->owner.lock()) {
        owner->peers.erase(c->peer_id);
      }
      return;
    }
    --clients;
    stats.connections_open.fetch_sub(1, std::memory_order_relaxed);
  }

  /// A connection failed: a client is dropped; a peer is dropped, then
  /// its owner hears why and is pumped.
  void fail(ConnPtr c, const std::string& why) {
    if (c->dead) return;
    drop(c);
    const ConnPtr owner = c->owner.lock();
    if (c->peer_id == 0 || owner == nullptr || owner->dead) return;
    c->handlers.on_close(why);
    pump(owner);
  }

  int connect_peer(const ConnPtr& owner, int port, Peers::Handlers handlers) {
    auto peer = std::make_shared<Conn>();
    peer->fd = tcp_connect_nonblocking(port);
    peer->raw_fd = peer->fd.get();
    peer->peer_id = ++peers_dialed;
    peer->connecting = true;
    peer->interest = EPOLLIN | EPOLLOUT;
    peer->owner = owner;
    peer->handlers = std::move(handlers);
    conns.emplace(peer->raw_fd, peer);
    owner->peers.emplace(peer->peer_id, peer);
    epoll_add(peer->raw_fd, peer->interest);
    return peer->peer_id;
  }

  /// Flushes what it can without blocking. Returns false when the
  /// connection must be dropped (peer gone, or an injected tear).
  bool flush(const ConnPtr& c) {
    std::lock_guard lock(c->out_mu);
    if (c->dead || !c->fd.valid() || c->connecting) return true;
    while (c->outpos < c->outbuf.size()) {
      if (fault::fire(fault::Point::ConnDrop)) return false;
      std::size_t chunk = c->outbuf.size() - c->outpos;
      const bool torn = fault::fire(fault::Point::TornWrite);
      if (torn) chunk = std::max<std::size_t>(1, chunk / 2);
      const ssize_t n = ::send(c->fd.get(), c->outbuf.data() + c->outpos,
                               chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (c->write_stall_since_ms < 0) {
            c->write_stall_since_ms = clock.elapsed_millis();
          }
          return true;  // EPOLLOUT resumes us
        }
        return false;  // peer vanished
      }
      c->outpos += static_cast<std::size_t>(n);
      if (torn) return false;  // the tear drops the connection
    }
    c->outbuf.clear();
    c->outpos = 0;
    c->write_stall_since_ms = -1;
    return true;
  }

  /// EPOLLOUT while bytes are pending (or a connect is settling), EPOLLIN
  /// while there is something to read — not after end-of-file (a
  /// level-triggered EOF would wake the loop forever) and not while an
  /// answer is owed (the client's later requests wait in its socket).
  void settle_interest(const ConnPtr& c) {
    const std::uint32_t want =
        (c->read_closed || c->awaiting_result ? 0u : EPOLLIN) |
        (c->connecting || has_unflushed(*c) ? EPOLLOUT : 0u);
    if (c->interest == want || !c->fd.valid()) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->raw_fd;
    if (::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, c->raw_fd, &ev) == 0) {
      c->interest = want;
    }
  }

  /// Clean-EOF reap: a read-closed client with no unprocessed requests,
  /// no pending work and nothing left to flush is done.
  void reap_if_finished(const ConnPtr& c) {
    if (!c->read_closed || c->session == nullptr) return;
    if (c->inpos < c->inbuf.size() || c->session->pending_work() > 0) return;
    if (!has_unflushed(*c)) drop(c);
  }

  /// Feeds a client's complete request lines (plus, at EOF, a final
  /// unterminated one) to its session, in order, until the session owes
  /// an answer. Returns false when the connection must be dropped.
  bool process_lines(const ConnPtr& c) {
    for (;;) {
      const bool awaiting = c->session->result_pending();
      if (c->awaiting_result && !awaiting) {
        c->last_activity_ms = clock.elapsed_millis();  // answered: idle again
      }
      c->awaiting_result = awaiting;
      if (awaiting) return true;
      const auto nl = c->inbuf.find('\n', c->inpos);
      std::string line;
      if (nl != std::string::npos) {
        line = c->inbuf.substr(c->inpos, nl - c->inpos);
        c->inpos = nl + 1;
      } else if (c->inbuf.size() - c->inpos > kMaxLineBytes) {
        std::lock_guard lock(c->out_mu);
        c->outbuf += format_error("", "request line exceeds the size limit",
                                  ErrCode::BadRequest);
        c->outbuf += '\n';
        return false;
      } else if (c->read_closed && c->inpos < c->inbuf.size()) {
        line = c->inbuf.substr(c->inpos);
        c->inpos = c->inbuf.size();
      } else {
        break;
      }
      fault::maybe_delay();
      if (!c->session->handle_line(line)) {
        // An honored shutdown op: the bye is in the outbuf; flush it
        // best-effort, then stop the whole server (one stop path).
        stopping = true;
        return false;
      }
    }
    if (c->inpos == c->inbuf.size() || c->inpos > kReadChunk) {
      c->inbuf.erase(0, c->inpos);
      c->inpos = 0;
    }
    return true;
  }

  /// Hands a peer's complete lines to its owner's session. A response
  /// always ends in a newline, so bytes left at EOF are a torn line and
  /// are not delivered.
  void deliver_peer_lines(const ConnPtr& peer) {
    std::size_t nl = 0;
    while ((nl = peer->inbuf.find('\n', peer->inpos)) != std::string::npos) {
      const std::string line =
          peer->inbuf.substr(peer->inpos, nl - peer->inpos);
      peer->inpos = nl + 1;
      peer->handlers.on_line(line);
      if (peer->dead) return;  // the session closed it
    }
    peer->inbuf.erase(0, peer->inpos);
    peer->inpos = 0;
    if (peer->inbuf.size() > kMaxLineBytes) {
      fail(peer, "response line exceeds the size limit");
    }
  }

  /// Serves what a client has buffered, flushes the replies, then settles
  /// its interest or reaps it.
  void pump(const ConnPtr& c) {
    if (c->dead) return;
    if (!process_lines(c)) {
      (void)flush(c);  // best-effort goodbye (shutdown bye, error line)
      drop(c);
    } else if (!flush(c)) {
      drop(c);
    } else {
      settle_interest(c);
      reap_if_finished(c);
    }
  }

  void on_readable(const ConnPtr& c) {
    for (int i = 0; i < kMaxReadsPerEvent; ++i) {
      if (fault::fire(fault::Point::ConnDrop)) {
        fail(c, "injected fault: connection dropped in recv");
        return;
      }
      char buf[kReadChunk];
      const std::size_t want =
          fault::fire(fault::Point::ShortRead) ? 1 : sizeof(buf);
      const ssize_t n = ::recv(c->fd.get(), buf, want, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail(c, std::string("recv: ") + std::strerror(errno));
        return;
      }
      if (n == 0) {
        c->read_closed = true;
        break;
      }
      c->inbuf.append(buf, static_cast<std::size_t>(n));
      c->last_activity_ms = clock.elapsed_millis();
    }
    if (c->peer_id == 0) {
      pump(c);
      return;
    }
    deliver_peer_lines(c);
    if (c->read_closed && !c->dead) {
      fail(c, "connection closed by the peer");  // pumps the owner
    } else if (const ConnPtr owner = c->owner.lock()) {
      pump(owner);  // relayed lines out, held requests in
    }
  }

  void on_event(const ConnPtr& c, std::uint32_t events) {
    if (c->connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(c->raw_fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        err = errno;
      }
      if (err != 0) {
        fail(c, std::string("connect: ") + std::strerror(err));
        return;
      }
      c->connecting = false;
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
      fail(c, "connection reset");
      return;
    }
    if ((events & EPOLLOUT) != 0) {
      if (!flush(c)) {
        fail(c, "send failed");
        return;
      }
      settle_interest(c);
      reap_if_finished(c);
      if (c->dead) return;
    }
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) on_readable(c);
  }

  void accept_new() {
    for (;;) {
      const int raw = ::accept4(listener.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          std::fprintf(stderr, "event loop: accept error: errno %d\n", errno);
        }
        return;
      }
      FdHandle fd(raw);
      if (fault::fire(fault::Point::AcceptFail)) continue;  // injected drop
      set_nodelay(raw);
      if (clients >= options.max_clients) {
        // Overload shedding: immediate structured rejection, never a
        // queue slot. Best-effort single send.
        stats.sheds.fetch_add(1, std::memory_order_relaxed);
        const std::string line =
            format_error("",
                         "server at capacity (" +
                             std::to_string(options.max_clients) +
                             " clients); retry after backoff",
                         ErrCode::Overloaded, options.overload_retry_after_ms) +
            "\n";
        (void)::send(raw, line.data(), line.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        continue;
      }

      auto conn = std::make_shared<Conn>();
      conn->raw_fd = raw;
      conn->fd = std::move(fd);
      conn->last_activity_ms = clock.elapsed_millis();
      conn->peer_api = std::make_unique<PeerApi>(*this, conn);
      // The emit closure runs on engine runner threads (async results,
      // progress streams) and on the loop thread itself (acks, relayed
      // lines): append under the lock, then wake the loop. The weak_ptr
      // keeps a torn connection from pinning its buffers forever.
      conn->session = factory(
          [state = state, wconn = std::weak_ptr<Conn>(conn)](
              const std::string& line) {
            const auto c = wconn.lock();
            if (c == nullptr) return;
            {
              std::lock_guard lock(c->out_mu);
              if (c->dead) return;
              c->outbuf += line;
              c->outbuf += '\n';
            }
            state->mark_dirty(wconn);
          },
          *conn->peer_api);
      conns.emplace(raw, conn);
      ++clients;
      stats.connections_total.fetch_add(1, std::memory_order_relaxed);
      stats.connections_open.fetch_add(1, std::memory_order_relaxed);
      epoll_add(raw, EPOLLIN);
    }
  }

  /// Deadline sweep: write-stall drops (clients and peers) and idle reaps
  /// (clients only). Every 100 ms over every connection is noise next to
  /// epoll at these scales.
  void tick() {
    const double now = clock.elapsed_millis();
    for (const ConnPtr& c : snapshot()) {
      if (c->dead) continue;  // went down with its owner this sweep
      bool stalled = false;
      if (options.write_timeout_ms > 0) {
        std::lock_guard lock(c->out_mu);
        stalled = c->write_stall_since_ms >= 0 &&
                  now - c->write_stall_since_ms > options.write_timeout_ms;
      }
      if (stalled) {
        fail(c, "write deadline: the peer stopped reading");
      } else if (c->peer_id == 0 && options.idle_timeout_ms > 0 &&
                 !c->read_closed && !c->awaiting_result &&
                 now - c->last_activity_ms > options.idle_timeout_ms) {
        // The idle reaper's structured goodbye, best-effort.
        {
          std::lock_guard lock(c->out_mu);
          c->outbuf += format_error(
              "", "idle timeout: no request within the deadline",
              ErrCode::Timeout);
          c->outbuf += '\n';
        }
        (void)flush(c);
        drop(c);
      } else {
        reap_if_finished(c);
      }
    }
  }

  void run() {
    epoll_add(listener.get(), EPOLLIN);
    epoll_add(wake.get(), EPOLLIN);
    epoll_add(stop.get(), EPOLLIN);

    std::vector<epoll_event> events(256);
    while (!stopping) {
      const int rc = ::epoll_wait(epoll.get(), events.data(),
                                  static_cast<int>(events.size()),
                                  conns.empty() ? -1 : 100);
      if (rc < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "event loop: epoll error: errno %d\n", errno);
        break;
      }
      stats.loop_wakeups.fetch_add(1, std::memory_order_relaxed);

      for (int i = 0; i < rc && !stopping; ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.fd == stop.get()) {
          stopping = true;
        } else if (ev.data.fd == wake.get()) {
          drain_eventfd(ev.data.fd);
          for (const auto& wconn : state->take_dirty()) {
            // A delivered result may release held requests.
            if (const ConnPtr c = wconn.lock()) pump(c);
          }
        } else if (ev.data.fd == listener.get()) {
          accept_new();
        } else if (const auto it = conns.find(ev.data.fd); it != conns.end()) {
          on_event(ConnPtr(it->second), ev.events);
        }
      }
      if (!stopping) tick();
    }

    // Drain: no new connections; flush what we can and tear every session
    // down (its jobs cancelled, its peers closed; no waiting on the loop
    // thread), then the drain hook deals with the remainder.
    shutdown_both(listener);
    for (const ConnPtr& c : snapshot()) {
      (void)flush(c);
      drop(c);
    }
    if (on_drain) on_drain();
  }

  const EventLoopOptions options;
  ServeStats& stats;
  const SessionFactory factory;
  const std::function<void()> on_drain;
  int port = 0;
  FdHandle listener;
  FdHandle epoll;
  FdHandle wake;  ///< completion wakeup (runner threads write)
  FdHandle stop;  ///< stop request (signal handlers write)
  const std::shared_ptr<LoopState> state;

  // Loop-thread state.
  std::map<int, ConnPtr> conns;  ///< by fd: clients and peers
  std::size_t clients = 0;
  int peers_dialed = 0;  ///< peer ids are never reused
  bool stopping = false;
  WallTimer clock;
};

EventLoopServer::EventLoopServer(EventLoopOptions options, ServeStats& stats,
                                 SessionFactory factory,
                                 std::function<void()> on_drain)
    : loop_(std::make_unique<Loop>(options, stats, std::move(factory),
                                   std::move(on_drain))) {}

EventLoopServer::~EventLoopServer() = default;

int EventLoopServer::port() const { return loop_->port; }

void EventLoopServer::run() { loop_->run(); }

void EventLoopServer::request_stop() noexcept {
  signal_eventfd(loop_->stop.get());
}

EventLoopServer service_loop(ServiceHost& host, EventLoopOptions options,
                             SessionPolicy policy) {
  // The loop never blocks and never waits: sessions deliver results
  // through the async terminal callbacks, and teardown leaves cancelled
  // jobs to the scheduler shutdown at the end of the drain.
  policy.async_results = true;
  return EventLoopServer(
      options, host.serve_stats(),
      [&host, policy](LineSession::Emit emit, Peers&) {
        return std::make_unique<ServiceSession>(host, std::move(emit), policy);
      },
      [&host] { host.engine().scheduler().shutdown(); });
}

}  // namespace ffp
