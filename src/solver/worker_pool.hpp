// Process-wide shared worker pools for intra-solver parallelism.
//
// The batched fusion-fission engine wants a pool of speculation workers per
// run; spinning threads up and down per solve (or per portfolio restart)
// would waste both startup latency and warm thread_local scratch. This
// hands out one cached ThreadPool per requested size, shared by every
// solver run that asks for it — concurrent clients are safe because each
// waits through its own TaskGroup (util/parallel.hpp), never wait_idle().
//
// Contract: work submitted to a shared pool must never block on the pool
// itself (a task waiting for pool capacity it is occupying deadlocks).
// That is why PortfolioRunner keeps a private pool — its restart tasks DO
// block, on whole solver runs — while the solvers' leaf-level speculation
// tasks, which only compute, ride the shared pools. The two levels never
// share a pool, so portfolio-of-parallel-solvers nesting cannot deadlock.
#pragma once

#include <memory>

#include "runtime/thread_budget.hpp"
#include "util/parallel.hpp"

namespace ffp {

/// Returns the shared pool with exactly `threads` workers, creating it on
/// first use. The pool stays alive while any client holds the handle and is
/// torn down when the last handle drops.
std::shared_ptr<ThreadPool> shared_worker_pool(unsigned threads);

/// Budget-aware variant: a PRIVATE pool with exactly `lease.granted()`
/// workers — one pool worker per leased slot, so ThreadBudget accounting
/// stays truthful. Deliberately NOT the size-keyed shared cache above:
/// concurrent clients with equal grants must not share threads, or the
/// budget would record capacity that does not exist. Null on a 0 grant —
/// the caller runs inline on its own (parent-accounted) thread.
std::shared_ptr<ThreadPool> leased_worker_pool(const WorkerLease& lease);

}  // namespace ffp
