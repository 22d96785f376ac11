// The fusion-fission metaheuristic (§4, Algorithms 1 & 2) — the paper's
// contribution. Vertices are nucleons, parts are atoms, the partition is
// the molecule; the search repeatedly fuses and fissions atoms, so the part
// count drifts around the target k instead of being fixed.
//
// One step (Algorithm 1):
//   1. choose a random atom;
//   2. choice(x) (core/choice) decides fusion or fission by atom size and
//      temperature;
//   3. FUSION: pick a partner by connection strength (inverse "distance":
//      "the inverse of the sum of the weights of connected edges"), size
//      and temperature; merge; the law for the merged size ejects 0..3
//      nucleons, each absorbed by its best-connected atom ("incorporated
//      into different atoms connected with them");
//      FISSION: cut the atom in two by percolation (§4.4); the law ejects
//      0..3 nucleons; hot nucleons trigger a simple (no-ejection) fission
//      of a connected atom, cold ones are absorbed (§4.2);
//   4. the law is updated (reinforced on success), temperature decreases
//      linearly (decrease(t) = t − (tmax−tmin)/nbt);
//   5. the new partition is always accepted ("even if energy is higher");
//      at the freezing point the search reheats from the best partition.
//
// Energy = objective / scaling(p) (core/scaling): comparable across part
// counts. The best partition *at the target k* is the result; the best
// seen for each nearby k is also kept (§6: "if fusion fission returns a
// 32-partition, it returns good solutions from 27 to 38 partitions").
//
// Initialization (Algorithm 2) starts from singleton atoms and runs a
// simplified loop (no temperature, no nucleon-triggered fission, a
// fusion-biased choice) until the atom count first reaches k.
//
// Implementation: the molecule lives inside an ObjectiveTracker
// (partition/objective_tracker.hpp), so the objective value and the energy
// are running quantities — step(), do_fusion/do_fission's law updates, and
// the whole of initialize() read them in O(1) and never call a full
// ObjectiveFn::evaluate. Fusions use the bulk merge identity, fissions the
// bulk split identity, and the choice_term_bias leak-ratio sum is the
// tracker's auxiliary term, maintained under the same per-move updates.
//
// Parallelism (threads/batch options): besides the classic serial loop,
// the engine has a batched mode that exploits the per-atom independence
// inside Algorithm 1. Each *batch* runs three phases:
//
//   1. SELECT (serial): up to `batch` candidate atoms are drawn; each must
//      claim its territory — the atom plus every connected atom — through
//      the epoch-stamped AtomBatchScheduler (core/batch_scheduler.hpp).
//      Overlapping candidates are discarded as conflicts.
//   2. SPECULATE (parallel): the expensive per-atom work — percolation
//      bisection for fissions, connection scoring + partner selection for
//      fusions — runs on worker threads against the frozen molecule, each
//      operation on its own splitmix64-derived Rng stream. Disjoint
//      territories make every read conflict-free.
//   3. COMMIT (serial, fixed slot order): operations apply through the
//      ObjectiveTracker one by one — merge/split, law-driven ejection,
//      absorption, law reinforcement — exactly as the serial loop would.
//      Commits may touch parts outside their own territory (ejected
//      nucleons absorb two hops out), so committed mutations mark parts
//      dirty; a later operation whose territory got dirtied re-plans its
//      speculation serially against the current state (counted in
//      FusionFissionResult::stale_redone).
//
// Every random draw comes from a stream derived only from (seed, batch
// index, slot), and phases 1 and 3 are serial — so the result is
// byte-identical for any thread count at a fixed batch size; `threads`
// only decides where phase 2 runs. The batched schedule is NOT the serial
// schedule (temperature steps per slot, reheats land on batch boundaries),
// which is why `threads = 0` keeps the untouched serial loop as default.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/choice.hpp"
#include "core/laws.hpp"
#include "core/scaling.hpp"
#include "metaheuristics/anytime.hpp"
#include "partition/objective_tracker.hpp"
#include "partition/objectives.hpp"
#include "partition/partition.hpp"
#include "runtime/thread_budget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ffp {

/// Batch size the batched engine uses when FusionFissionOptions::batch is
/// left at 0. Deliberately a fixed constant, never derived from `threads`,
/// so changing the worker count can never change the schedule.
inline constexpr int kDefaultFusionFissionBatch = 16;

struct FusionFissionOptions {
  ObjectiveKind objective = ObjectiveKind::MinMaxCut;

  // The paper's five parameters (§6): tmax, tmin, nbt, and (k, r) of α(t).
  double tmax = 1.0;
  double tmin = 0.05;
  int nbt = 400;          ///< temperature steps from tmax to tmin
  double choice_slope = 4.0;
  double choice_offset = 0.25;

  double law_delta = 0.05;  ///< law reinforcement input value

  /// Experimental "customized" choice-function variant (§ conclusion
  /// mentions such variants): bias the fusion/fission decision by the
  /// atom's own leak ratio relative to the molecule average. Our ablation
  /// (bench/ablation_choice) found it HURTS on the core-area instance, so
  /// the default 0 keeps the paper's pure size-based choice(x).
  double choice_term_bias = 0.0;

  // Ablation switches (paper-faithful pure Algorithm 1 when
  // choice_term_bias = 0 and the rest are left at defaults).
  bool use_laws = true;               ///< frozen uniform laws when false
  bool percolation_fission = true;    ///< random halving when false
  ScalingKind scaling = ScalingKind::BindingEnergy;

  // Batched parallel engine (header comment above). threads == 0 runs the
  // classic serial Algorithm 1 loop. threads >= 1 runs the batched engine
  // with that many speculation workers (1 = inline on the calling thread);
  // results are byte-identical across all threads >= 1 for a fixed batch
  // size. batch > 0 overrides the default batch size and, on its own,
  // also selects the batched engine.
  int threads = 0;
  int batch = 0;  ///< candidate atoms per batch; 0 = kDefaultFusionFissionBatch
  /// Worker governor (runtime/thread_budget.hpp); null means
  /// ThreadBudget::process(). The batched engine *leases* its speculation
  /// workers: `threads` is a want, the run's private pool is sized to the
  /// grant (possibly 0: inline only), the calling thread runs lane 0, and
  /// the slots return when the run ends. `threads` and `batch` alone fix
  /// the schedule, so the result is byte-identical whatever the grant.
  /// This is how the engine composes with portfolio restarts and service
  /// jobs without oversubscribing.
  ThreadBudget* budget = nullptr;

  std::uint64_t seed = 17;

  // Durable-solve hooks (persist/). FF is anytime by construction — the
  // loop operates on ANY partition, not just the Algorithm 2 start — so
  // resume is just a different initialization and checkpointing is just a
  // different observer. Both default off and cost nothing when off.
  /// Skip Algorithm 2 and build the starting molecule from this
  /// assignment (one part id per vertex; must cover every vertex). When
  /// it has exactly k parts it also seeds best-at-k, so the run can never
  /// report a worse result than the partition it resumed from.
  std::shared_ptr<const std::vector<int>> warm_start;
  /// The checkpointed objective value of `warm_start` (see
  /// SolverRequest::warm_start_value): when it is LOWER than what the
  /// incremental tracker computes for the restored partition — float
  /// summation order can differ by an ulp — best-at-k adopts it, keeping
  /// the resume contract exact. Infinity = unknown.
  double warm_start_value = std::numeric_limits<double>::infinity();
  /// Memetic incumbent (evolve crossover's better parent): a full k-part
  /// assignment whose objective CAPS the result. Unlike warm_start it
  /// does not replace the starting molecule — the run still starts from
  /// warm_start (the parents' overlay) — it seeds best-at-k directly, so
  /// a crossover offspring can never report worse than its better parent
  /// no matter where the search wanders. Ignored when its part count is
  /// not exactly k (the guarantee would be meaningless).
  std::shared_ptr<const std::vector<int>> incumbent;
  /// The archived objective value of `incumbent`; the lower of it and the
  /// fresh re-evaluation is adopted (same ulp rule as warm_start_value).
  double incumbent_value = std::numeric_limits<double>::infinity();
  /// With checkpoint_sink set and checkpoint_every_ms > 0, the best-at-k
  /// partition (compacted assignment + objective value) is pushed through
  /// the sink at most once per interval — and once more at the end of the
  /// run — but only when it improved since the last push. The sink runs
  /// on the solve thread; persist::save_checkpoint is the intended body.
  std::int64_t checkpoint_every_ms = 0;
  std::function<void(const std::vector<int>& assignment, double value)>
      checkpoint_sink;
};

struct FusionFissionResult {
  Partition best;            ///< best partition with exactly k parts
  double best_value = 0.0;   ///< its objective value
  double best_energy = 0.0;  ///< its scaled energy
  /// Best objective seen at every visited part count (the §6 k-range claim).
  std::map<int, double> best_by_part_count;
  std::int64_t steps = 0;
  std::int64_t fusions = 0;
  std::int64_t fissions = 0;
  std::int64_t ejections = 0;
  int reheats = 0;
  // Batched-engine speculative-work accounting (all 0 in serial mode).
  std::int64_t batches = 0;       ///< step-batches committed
  std::int64_t conflicts = 0;     ///< candidates discarded for territory overlap
  std::int64_t stale_redone = 0;  ///< operations re-planned at commit
};

class FusionFission {
 public:
  FusionFission(const Graph& g, int k, FusionFissionOptions options);

  /// Full run: Algorithm 2 initialization, then Algorithm 1 until `stop`.
  FusionFissionResult run(const StopCondition& stop,
                          AnytimeRecorder* recorder = nullptr);

  /// Algorithm 2 only (exposed for tests/benches): a near-k partition grown
  /// from singletons. Always serial — initialization is fusion-dominated
  /// and already measures in milliseconds.
  Partition initialize();

 private:
  struct State;
  /// Speculative outputs, computed on workers against the frozen molecule
  /// and applied at commit (or re-planned there when stale).
  struct FusionPlan {
    int partner = -1;
    Weight w_conn = 0.0;
  };
  struct FissionPlan {
    /// Minority side to split off; empty = percolation degenerated to one
    /// side, force a single-vertex split.
    std::vector<VertexId> moved;
  };

  bool batched() const { return options_.threads >= 1 || options_.batch >= 1; }
  /// The fission probability of Algorithm 1 step 2 at `temperature`,
  /// including the optional leak-ratio choice bias — shared by the serial
  /// step and the batched SELECT phase so the choice rule stays one
  /// definition.
  double choice_probability(const State& s, int atom,
                            double temperature) const;
  void run_serial(State& s, const StopCondition& stop,
                  AnytimeRecorder* recorder);
  void run_batched(State& s, const StopCondition& stop,
                   AnytimeRecorder* recorder);
  void step(State& s);
  void do_fusion(State& s, int atom, Rng& rng, const FusionPlan* plan);
  void do_fission(State& s, int atom, Rng& rng, const FissionPlan* plan);
  int absorb_nucleon(State& s, VertexId v);          // nfusion
  void simple_fission(State& s, int atom, Rng& rng); // nfission, no ejection
  /// Chosen partner id (or -1) plus the connection weight to it. Const and
  /// reentrant: reads the molecule, draws only from `rng` — the fusion
  /// speculation entry point.
  std::pair<int, Weight> select_fusion_partner(const Partition& cur,
                                               double heat, int atom,
                                               Rng& rng) const;
  std::vector<VertexId> pick_ejected(State& s, int atom, int count);
  /// Computes the side to split off `members` (percolation or the random-
  /// halving ablation). Const and reentrant — the fission speculation
  /// entry point.
  void plan_split(std::span<const VertexId> members, bool allow_percolation,
                  Rng& rng, std::vector<VertexId>& moved) const;
  void split_atom(State& s, int atom, bool allow_percolation, Rng& rng,
                  const FissionPlan* plan);
  /// Energy of the current molecule, O(1) off the tracker's running value.
  double energy_now(const State& s) const;
  /// 1 at tmax … 0 at tmin.
  double heat_of(double temperature) const;
  /// low_temperature (Algorithm 1): back to tmax, restart from the best.
  void reheat(State& s);
  void note_partition(State& s, AnytimeRecorder* recorder);
  /// Checkpoint pump: emits best-at-k through options_.checkpoint_sink
  /// when the interval elapsed and the value improved. Callers gate on
  /// State::ckpt_on so the disabled path pays one branch.
  void maybe_checkpoint(State& s);
  void flush_checkpoint(State& s);

  const Graph* g_;
  int k_;
  FusionFissionOptions options_;
  ChoiceParams choice_;
  std::unique_ptr<ScalingFunction> scaling_;
};

}  // namespace ffp
