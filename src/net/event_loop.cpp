#include "net/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
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

void make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  FFP_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed: errno ", errno);
}

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

}  // namespace

/// One connection's state machines. The loop thread owns everything
/// except the outbound buffer, which engine runner threads append to
/// through the session's emit closure (guarded by out_mu + the dead
/// flag); `session` is created and destroyed on the loop thread only.
struct EventLoopServer::Conn {
  FdHandle fd;
  int raw_fd = -1;  ///< survives fd.reset() for map bookkeeping

  // Read side (loop thread only).
  std::string inbuf;
  std::size_t inpos = 0;  ///< start of the first unconsumed byte
  bool read_closed = false;
  /// A result op is waiting on its job: later requests stay unread (and
  /// unprocessed) until it is answered, and the idle clock is stopped.
  bool awaiting_result = false;
  double last_activity_ms = 0;
  std::uint32_t interest = EPOLLIN;  ///< current epoll event mask

  // Write side (shared with emit closures).
  std::mutex out_mu;
  std::string outbuf;
  std::size_t outpos = 0;
  bool dead = false;  ///< set under out_mu; emits become drops
  double write_stall_since_ms = -1;  ///< -1: not stalled

  std::unique_ptr<ServiceSession> session;
};

/// What the emit closures share with the loop: the dirty list (which
/// connections grew response bytes) and the wakeup fd. Held by
/// shared_ptr so a straggler closure on a runner thread outlives run().
struct EventLoopServer::LoopState {
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

EventLoopServer::EventLoopServer(ServiceHost& host, EventLoopOptions options)
    : host_(host), options_(options) {
  FFP_CHECK(options_.max_clients >= 1,
            "EventLoopServer needs max_clients >= 1");
  // The loop's transports never block and never wait: sessions deliver
  // results through the async terminal callbacks, and teardown leaves
  // cancelled jobs to the final scheduler shutdown.
  options_.session.async_results = true;
  listener_ = tcp_listen(options_.port, &port_);
  make_nonblocking(listener_.get());
  epoll_ = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  FFP_CHECK(epoll_.valid(), "epoll_create1 failed: errno ", errno);
  wake_ = make_eventfd();
  stop_ = make_eventfd();
  state_ = std::make_shared<LoopState>();
  state_->wake_fd = wake_.get();
}

EventLoopServer::~EventLoopServer() = default;

void EventLoopServer::request_stop() noexcept { signal_eventfd(stop_.get()); }

void EventLoopServer::run() {
  std::map<int, std::shared_ptr<Conn>> conns;
  const WallTimer clock;
  ServeStats& stats = host_.serve_stats();
  bool stopping = false;

  auto epoll_add = [&](int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    FFP_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(ADD) failed: errno ", errno);
  };
  epoll_add(listener_.get(), EPOLLIN);
  epoll_add(wake_.get(), EPOLLIN);
  epoll_add(stop_.get(), EPOLLIN);

  /// Tears one connection down on the loop thread: emits go dead, the
  /// session cancels its jobs (no-wait), the fd leaves the epoll set and
  /// closes. The Conn shell may outlive this (an emit closure can hold
  /// the last reference briefly); everything left in it is inert.
  auto drop = [&](const std::shared_ptr<Conn>& c) {
    {
      std::lock_guard lock(c->out_mu);
      if (c->dead) return;
      c->dead = true;
    }
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, c->raw_fd, nullptr);
    c->session.reset();
    c->fd.reset();
    conns.erase(c->raw_fd);
    stats.connections_open.fetch_sub(1, std::memory_order_relaxed);
  };

  /// Flushes what it can without blocking. Returns false when the
  /// connection must be dropped (peer gone, or an injected tear).
  auto flush = [&](const std::shared_ptr<Conn>& c) -> bool {
    std::lock_guard lock(c->out_mu);
    if (c->dead || !c->fd.valid()) return true;
    while (c->outpos < c->outbuf.size()) {
      if (fault::fire(fault::Point::ConnDrop)) return false;
      std::size_t chunk = c->outbuf.size() - c->outpos;
      const bool torn = fault::fire(fault::Point::TornWrite);
      if (torn) chunk = std::max<std::size_t>(1, chunk / 2);
      const ssize_t n =
          ::send(c->fd.get(), c->outbuf.data() + c->outpos, chunk,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
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
  };

  /// After a flush: EPOLLOUT while response bytes are pending, EPOLLIN
  /// while there is something to read — not after end-of-file (a
  /// level-triggered EOF would wake the loop forever) and not while a
  /// result is awaited (the peer's later requests wait in its socket).
  /// Only the loop thread touches interest, so outside out_mu is fine.
  auto settle_interest = [&](const std::shared_ptr<Conn>& c) {
    bool pending = false;
    {
      std::lock_guard lock(c->out_mu);
      pending = c->outpos < c->outbuf.size();
    }
    const std::uint32_t want =
        (c->read_closed || c->awaiting_result ? 0u : EPOLLIN) |
        (pending ? EPOLLOUT : 0u);
    if (c->interest == want || !c->fd.valid()) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->raw_fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c->raw_fd, &ev) == 0) {
      c->interest = want;
    }
  };

  /// Clean-EOF reap: a read-closed connection with no unprocessed
  /// requests, no unfinished jobs, no unclaimed results and an empty
  /// outbound buffer has nothing left to say — drain-then-close without
  /// blocking the loop.
  auto reap_if_finished = [&](const std::shared_ptr<Conn>& c) {
    if (!c->read_closed || c->session == nullptr) return;
    if (c->inpos < c->inbuf.size()) return;
    if (c->session->pending_work() > 0) return;
    bool pending = false;
    {
      std::lock_guard lock(c->out_mu);
      pending = c->outpos < c->outbuf.size();
    }
    if (!pending) drop(c);
  };

  /// Consumes every complete line in the inbuf (plus, at EOF, a final
  /// unterminated one — LineReader's rule), in order: a result op still
  /// waiting on its job holds back the lines behind it, so replies leave
  /// in request order and the idle clock restarts once it is answered.
  /// Returns false when the connection must be dropped.
  auto process_lines = [&](const std::shared_ptr<Conn>& c) -> bool {
    for (;;) {
      const bool awaiting = c->session->result_pending();
      if (c->awaiting_result && !awaiting) {
        c->last_activity_ms = clock.elapsed_millis();
      }
      c->awaiting_result = awaiting;
      if (awaiting) return true;
      const auto nl = c->inbuf.find('\n', c->inpos);
      if (nl == std::string::npos) {
        if (c->inbuf.size() - c->inpos > kMaxLineBytes) {
          std::lock_guard lock(c->out_mu);
          c->outbuf += format_error("", "request line exceeds the size limit",
                                    ErrCode::BadRequest);
          c->outbuf += '\n';
          return false;
        }
        if (c->read_closed && c->inpos < c->inbuf.size()) {
          // Final unterminated line.
          const std::string line = c->inbuf.substr(c->inpos);
          c->inbuf.clear();
          c->inpos = 0;
          fault::maybe_delay();
          if (!c->session->handle_line(line)) {
            stopping = true;
            return false;
          }
        }
        break;
      }
      const std::string line = c->inbuf.substr(c->inpos, nl - c->inpos);
      c->inpos = nl + 1;
      fault::maybe_delay();
      if (!c->session->handle_line(line)) {
        // An allowed shutdown op: the bye is in the outbuf; flush it
        // best-effort, then stop the whole server (one stop path).
        stopping = true;
        return false;
      }
    }
    if (c->inpos > 0 && c->inpos == c->inbuf.size()) {
      c->inbuf.clear();
      c->inpos = 0;
    } else if (c->inpos > kReadChunk) {
      c->inbuf.erase(0, c->inpos);
      c->inpos = 0;
    }
    return true;
  };

  /// Serves what the connection has buffered, flushes the replies, then
  /// settles its interest or reaps it.
  auto pump = [&](const std::shared_ptr<Conn>& c) {
    if (!process_lines(c)) {
      (void)flush(c);  // best-effort goodbye (shutdown bye, error line)
      drop(c);
      return;
    }
    if (!flush(c)) {
      drop(c);
      return;
    }
    settle_interest(c);
    reap_if_finished(c);
  };

  auto on_readable = [&](const std::shared_ptr<Conn>& c) {
    for (int i = 0; i < kMaxReadsPerEvent; ++i) {
      if (fault::fire(fault::Point::ConnDrop)) {
        drop(c);
        return;
      }
      char buf[kReadChunk];
      const std::size_t want =
          fault::fire(fault::Point::ShortRead) ? 1 : sizeof(buf);
      const ssize_t n = ::recv(c->fd.get(), buf, want, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop(c);  // reset / torn peer
        return;
      }
      if (n == 0) {
        c->read_closed = true;
        break;
      }
      c->inbuf.append(buf, static_cast<std::size_t>(n));
      c->last_activity_ms = clock.elapsed_millis();
    }
    pump(c);
  };

  auto accept_new = [&] {
    for (;;) {
      const int raw = ::accept4(listener_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (raw < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        std::fprintf(stderr, "ffp_serve: accept error: errno %d\n", errno);
        return;
      }
      FdHandle fd(raw);
      if (fault::fire(fault::Point::AcceptFail)) continue;  // injected drop
      set_nodelay(raw);
      if (conns.size() >= options_.max_clients) {
        // Overload shedding: immediate structured rejection, never a
        // queue slot. Best-effort single send.
        stats.sheds.fetch_add(1, std::memory_order_relaxed);
        const std::string line =
            format_error("",
                         "server at capacity (" +
                             std::to_string(options_.max_clients) +
                             " clients); retry after backoff",
                         ErrCode::Overloaded,
                         options_.overload_retry_after_ms) +
            "\n";
        (void)::send(raw, line.data(), line.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        continue;
      }

      auto conn = std::make_shared<Conn>();
      conn->raw_fd = raw;
      conn->fd = std::move(fd);
      conn->last_activity_ms = clock.elapsed_millis();
      // The emit closure runs on engine runner threads (async results,
      // progress streams) and on the loop thread itself (acks): append
      // under the lock, then wake the loop. The weak_ptr keeps a torn
      // connection from pinning its buffers forever.
      conn->session = std::make_unique<ServiceSession>(
          host_,
          [state = state_, wconn = std::weak_ptr<Conn>(conn)](
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
          options_.session);
      conns.emplace(raw, conn);
      stats.connections_total.fetch_add(1, std::memory_order_relaxed);
      stats.connections_open.fetch_add(1, std::memory_order_relaxed);
      epoll_add(raw, EPOLLIN);
    }
  };

  std::vector<epoll_event> events(256);
  while (!stopping) {
    const int rc = ::epoll_wait(epoll_.get(), events.data(),
                                static_cast<int>(events.size()),
                                conns.empty() ? -1 : 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "ffp_serve: epoll error: errno %d\n", errno);
      break;
    }
    stats.loop_wakeups.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < rc && !stopping; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == stop_.get()) {
        stopping = true;
        break;
      }
      if (fd == wake_.get()) {
        drain_eventfd(fd);
        for (const auto& wconn : state_->take_dirty()) {
          const auto c = wconn.lock();
          if (c == nullptr || c->dead) continue;
          pump(c);  // a delivered result may release held requests
        }
        continue;
      }
      if (fd == listener_.get()) {
        accept_new();
        continue;
      }
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;
      const std::shared_ptr<Conn> c = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
        drop(c);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) {
        if (!flush(c)) {
          drop(c);
          continue;
        }
        settle_interest(c);
        reap_if_finished(c);
        if (c->dead) continue;
      }
      if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) on_readable(c);
    }
    if (stopping) break;

    // Deadline tick: idle reap and write-stall drops. A 100 ms sweep over
    // every connection is noise next to epoll at these scales.
    const double now = clock.elapsed_millis();
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(conns.size());
    for (const auto& [fd, c] : conns) {
      (void)fd;
      snapshot.push_back(c);
    }
    std::vector<std::shared_ptr<Conn>> doomed;
    std::vector<std::shared_ptr<Conn>> idle;
    for (const auto& c : snapshot) {
      if (options_.write_timeout_ms > 0) {
        std::lock_guard lock(c->out_mu);
        if (c->write_stall_since_ms >= 0 &&
            now - c->write_stall_since_ms > options_.write_timeout_ms) {
          doomed.push_back(c);
          continue;
        }
      }
      if (options_.idle_timeout_ms > 0 && !c->read_closed &&
          !c->awaiting_result &&
          now - c->last_activity_ms > options_.idle_timeout_ms) {
        idle.push_back(c);
        continue;
      }
      reap_if_finished(c);
    }
    for (const auto& c : doomed) drop(c);
    for (const auto& c : idle) {
      // The idle reaper's structured goodbye, best-effort.
      {
        std::lock_guard lock(c->out_mu);
        if (!c->dead) {
          c->outbuf += format_error(
              "", "idle timeout: no request within the deadline",
              ErrCode::Timeout);
          c->outbuf += '\n';
        }
      }
      (void)flush(c);
      drop(c);
    }
  }

  // Drain: no new connections, flush what we can, tear every session
  // down (cancelling its jobs; no waiting on the loop thread), then let
  // the scheduler finish the running remainder.
  shutdown_both(listener_);
  std::vector<std::shared_ptr<Conn>> live;
  live.reserve(conns.size());
  for (const auto& [fd, c] : conns) {
    (void)fd;
    live.push_back(c);
  }
  for (const auto& c : live) {
    (void)flush(c);
    drop(c);
  }
  host_.engine().scheduler().shutdown();
}

}  // namespace ffp
