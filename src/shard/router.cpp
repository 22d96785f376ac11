#include "shard/router.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "api/problem.hpp"
#include "service/json.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace ffp::shard {

namespace {

/// Routing identity for graph_file submissions: hash the path string.
/// The router never opens graph files — same path routes to the same
/// shard, and the content digest is computed (and cached) there.
std::uint64_t path_digest(const std::string& path) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

/// One client connection's relay: a backend connection per shard (a loop
/// peer, dialed on first use), where each job id went, and the one op in
/// flight.
class Router::Session final : public LineSession {
 public:
  Session(Router& router, Emit emit, Peers& peers)
      : router_(router), emit_(std::move(emit)), peers_(peers) {}

  bool handle_line(std::string_view raw_line) override;
  bool result_pending() override { return op_.has_value(); }
  std::size_t pending_work() override { return op_.has_value() ? 1 : 0; }

 private:
  /// The op being relayed. A submit also carries its ring preference
  /// order and where failover resumes in it.
  struct Op {
    Op(std::string_view raw, std::string op_id, bool is_submit,
       std::size_t at = 0)
        : line(raw), id(std::move(op_id)), submit(is_submit), shard(at) {}

    std::string line;  ///< the raw request, resent on failover
    std::string id;
    bool submit;
    std::size_t shard;  ///< where it is in flight
    std::vector<std::size_t> pref;
    std::size_t next = 0;      ///< next candidate in pref
    bool last_resort = false;  ///< second pass: shards in cooldown too
  };

  void send_submit();
  void on_backend_line(std::size_t shard, const std::string& line);
  void on_backend_closed(std::size_t shard, const std::string& why);

  Router& router_;
  Emit emit_;
  Peers& peers_;
  std::map<std::size_t, int> backends_;  ///< shard -> live peer
  /// job id -> (shard, the peer it was submitted on): a job is known only
  /// to that one shard session.
  std::map<std::string, std::pair<std::size_t, int>> routed_;
  std::optional<Op> op_;
};

bool Router::Session::handle_line(std::string_view raw_line) {
  if (trim(raw_line).empty()) return true;  // keep-alive
  const RouterOptions& options = router_.options_;
  std::string id;
  try {
    // Full validation up front: a malformed request dies HERE with a
    // structured error and never costs a backend round trip.
    const Request request = parse_request(raw_line, options.limits);
    id = request.id;
    switch (request.op) {
      case RequestOp::Submit:
        op_.emplace(raw_line, id, true);
        op_->pref = router_.ring_.preference(
            request.inline_graph != nullptr
                ? api::graph_digest(*request.inline_graph)
                : path_digest(request.graph_file));
        send_submit();
        return true;
      case RequestOp::Status:
      case RequestOp::Cancel:
      case RequestOp::Result: {
        const auto it = routed_.find(id);
        if (it == routed_.end()) {
          throw ServiceError(ErrCode::UnknownJob,
                             "unknown job id '" + id +
                                 "' (not routed on this connection)");
        }
        const auto [shard, peer] = it->second;
        const auto backend = backends_.find(shard);
        if (backend == backends_.end() || backend->second != peer) {
          throw ServiceError(ErrCode::ConnLost,
                             "the connection to shard " +
                                 std::to_string(shard) +
                                 " closed with this job on it; resubmit");
        }
        op_.emplace(raw_line, id, false, shard);
        peers_.send(peer, op_->line);
        return true;
      }
      case RequestOp::MigrateElite:
        throw Error(
            "migrate_elite is shard-to-shard gossip; the router refuses it");
      case RequestOp::Shutdown:
        if (!options.allow_shutdown) {
          throw ServiceError(
              ErrCode::Forbidden,
              "shutdown is not allowed through the router (start it with "
              "--allow-remote-shutdown)");
        }
        // Router-local: the fleet stays up; stopping shards is an
        // operator action on the shards themselves.
        emit_(format_bye());
        return false;
    }
  } catch (const ServiceError& e) {
    emit_(format_error(id, e.what(), e.code(), e.retry_after_ms()));
  } catch (const Error& e) {
    emit_(format_error(id, e.what(), ErrCode::BadRequest));
  } catch (const std::exception& e) {
    emit_(format_error(id, e.what(), ErrCode::Internal));
  }
  return true;
}

/// Sends the submit in flight to its next candidate: live shards in ring
/// order, then — when all of those failed or are cooling down — every
/// shard, last resort (probing a corpse beats refusing). Answers the
/// client itself when no candidate is left.
void Router::Session::send_submit() {
  Op& op = *op_;
  for (;;) {
    if (op.next == op.pref.size()) {
      if (op.last_resort) break;
      op.last_resort = true;
      op.next = 0;
    }
    const std::size_t s = op.pref[op.next++];
    if (!op.last_resort && !router_.shard_up(s)) continue;
    auto it = backends_.find(s);
    if (it == backends_.end()) {
      try {
        // A dead loopback port usually refuses at once; a later refusal
        // arrives as a close. Either way that is the health probe.
        const int peer = peers_.connect(
            router_.options_.shard_ports[s],
            {[this, s](const std::string& line) { on_backend_line(s, line); },
             [this, s](const std::string& why) {
               on_backend_closed(s, why);
             }});
        it = backends_.emplace(s, peer).first;
      } catch (const Error&) {
        router_.mark_down(s);
        continue;
      }
    }
    op.shard = s;
    peers_.send(it->second, op.line);
    return;
  }
  const std::string id = op.id;
  op_.reset();
  emit_(format_error(id,
                     "no shard is reachable for this graph; retry after "
                     "backoff",
                     ErrCode::ShuttingDown, router_.options_.down_cooldown_ms));
}

void Router::Session::on_backend_line(std::size_t shard,
                                      const std::string& line) {
  std::string event;
  std::string line_id;
  try {
    const JsonValue root =
        JsonValue::parse(line, router_.options_.limits.json);
    if (const JsonValue* e = root.find("event");
        e != nullptr && e->is_string()) {
      event = e->as_string();
    }
    if (const JsonValue* i = root.find("id");
        i != nullptr && i->is_string()) {
      line_id = i->as_string();
    }
  } catch (const Error&) {
    // Not the protocol: this backend conversation is over.
    peers_.close(backends_.at(shard));
    on_backend_closed(shard, "unparseable response line");
    return;
  }
  if (!op_.has_value() || op_->shard != shard) {
    // Nothing is asked of this shard: a job's progress stream is the
    // client's to hear, anything else (an idle-reap goodbye to this
    // relay, say) answers nobody.
    if (event == "progress") emit_(line);
    return;
  }
  // Verbatim relay: whatever the shard said, the client hears — the
  // router adds routing, never rewrites answers.
  emit_(line);
  if (event == "progress") return;  // stream-through, op still open
  const bool rejected = event == "error" && line_id.empty();
  if (!rejected && line_id != op_->id) return;
  if (op_->submit) {
    router_.down_until_ms_[shard] = 0;  // it answered: back in rotation
    routed_[op_->id] = {shard, backends_.at(shard)};
  }
  op_.reset();
  if (rejected) {
    // Connection-level rejection from the shard (shed, reap, drain),
    // already relayed: this backend conversation is over, and the
    // client's own retry policy takes it from here.
    peers_.close(backends_.at(shard));
    backends_.erase(shard);
  }
}

void Router::Session::on_backend_closed(std::size_t shard,
                                        const std::string& why) {
  backends_.erase(shard);
  // With nothing in flight there, the next op pinned to this shard
  // learns of it.
  if (!op_.has_value() || op_->shard != shard) return;
  router_.mark_down(shard);
  if (op_->submit) {
    send_submit();
    return;
  }
  // The shard died with this client's job on it: a retryable error, so
  // the client's retry loop resubmits and the ring routes around the
  // shard at once — no retry-after hint, there is nothing to wait for.
  const std::string id = op_->id;
  op_.reset();
  emit_(format_error(id,
                     "shard " + std::to_string(shard) + " unavailable (" +
                         why + "); resubmit to fail over",
                     ErrCode::ShuttingDown));
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shard_ports.size(), options_.vnodes),
      down_until_ms_(options_.shard_ports.size(), 0.0),
      loop_(options_.loop, stats_,
            [this](LineSession::Emit emit, Peers& peers) {
              return std::make_unique<Session>(*this, std::move(emit), peers);
            }) {}

Router::~Router() = default;

void Router::mark_down(std::size_t s) {
  down_until_ms_[s] = clock_.elapsed_millis() + options_.down_cooldown_ms;
  down_marks_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "ffp_router: shard %zu (port %d) marked down for %.0f ms\n", s,
               options_.shard_ports[s], options_.down_cooldown_ms);
}

}  // namespace ffp::shard
