// Router — the scale-out front end (ffp_router): accepts the same wire
// protocol as ffp_serve and forwards each request to one of N backend
// shards, chosen by graph digest on a consistent-hash ring (hash_ring.hpp)
// so that repeat traffic on one graph always hits the same shard — that
// shard's result cache answers the repeats and its elite archive keeps
// learning the graph. Inline graphs route by content digest, graph_file
// submissions by a hash of the path (the router never opens files). The
// router holds no solver state: shard lines relay to the client verbatim.
//
// It is a session type on the one EventLoopServer: each client gets a
// relay session whose backend connections (one per shard, reused across
// ops, so a shard sees one session per client) are loop peers; everything
// runs on the loop thread. One op is in flight per client — the session
// owes an answer until the shard sends a line with the request's id, so
// later requests wait and the idle clock stops, as on a shard. Backend
// lines relay as they arrive (progress streams live); a line from a shard
// with no op in flight there relays only if it is `progress` — anything
// else, say its idle-reap goodbye to the relay, answers nobody.
//
// Failure story (the retryable-error taxonomy end to end):
//   * A submit whose shard refuses, resets or closes before settling it
//     marks the shard down for `down_cooldown_ms` and is resent along the
//     ring's preference order — the client sees the ack of whichever
//     shard took the job. Shards in cooldown are skipped, and tried last
//     resort when every shard is down.
//   * An op pinned to a shard (status/cancel/result) whose backend dies
//     with the op in flight marks the shard down and gets a retryable
//     `shutting_down` error; one whose backend the shard already closed
//     gets a retryable `conn_lost` error. Both carry the job id, and a
//     pinned op never opens a fresh backend (a new shard session cannot
//     know the id): the client resubmits, and the ring routes the job back
//     to its shard's cache, or around the shard if it is down.
//   * A shard's connection-level rejections (shed, idle reap, drain) that
//     answer an op in flight relay verbatim; the client's backoff applies.
//
// Shutdown ops are router-local (gated by allow_shutdown) — a client must
// not be able to stop a whole fleet through the front door. migrate_elite
// is rejected: migration is shard-to-shard gossip, not client traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/event_loop.hpp"
#include "service/protocol.hpp"
#include "shard/hash_ring.hpp"
#include "util/timer.hpp"

namespace ffp::shard {

struct RouterOptions {
  /// The client side; write_timeout_ms also bounds backend writes.
  EventLoopOptions loop;
  std::vector<int> shard_ports;  ///< backend ffp_serve ports, 127.0.0.1
  /// How long a failed shard stays out of the rotation before the next
  /// request may probe it again.
  double down_cooldown_ms = 2000;
  int vnodes = 64;  ///< ring points per shard
  bool allow_shutdown = false;  ///< honor client {"op":"shutdown"} (router-local)
  ProtocolLimits limits;
};

class Router {
 public:
  /// Binds the listener (throws ffp::Error when the port is taken).
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  int port() const { return loop_.port(); }
  std::size_t shards() const { return options_.shard_ports.size(); }

  /// Serves until request_stop() (or an allowed client shutdown op).
  void run() { loop_.run(); }

  /// Async-signal-safe stop request; idempotent.
  void request_stop() noexcept { loop_.request_stop(); }

  /// How many times a shard has been marked down (failover ran).
  std::int64_t down_marks() const {
    return down_marks_.load(std::memory_order_relaxed);
  }

 private:
  class Session;

  bool shard_up(std::size_t s) const {
    return down_until_ms_[s] <= clock_.elapsed_millis();
  }
  void mark_down(std::size_t s);

  RouterOptions options_;
  HashRing ring_;
  WallTimer clock_;
  std::vector<double> down_until_ms_;  ///< per shard; 0 = up
  std::atomic<std::int64_t> down_marks_{0};
  ServeStats stats_;
  EventLoopServer loop_;  ///< last: its sessions use everything above
};

}  // namespace ffp::shard
