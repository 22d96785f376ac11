// Conflict-free atom batching for the parallel fusion-fission engine
// (core/fusion_fission): a batch may only contain operations whose
// *territories* are pairwise disjoint, where an operation's territory is
// its chosen atom plus every atom connected to it. Disjoint territories
// guarantee that the speculative phase — worker threads bisecting atoms
// and scoring fusion partners against the frozen molecule — never reads
// state that another operation in the same batch will write at commit, so
// speculation results are valid regardless of execution order and the
// batch commits in fixed slot order with byte-identical results at any
// thread count.
//
// Claims are epoch-stamped (partition/part_scratch.hpp): beginning a batch
// is O(1) amortized, and each claim costs at most one arc scan over the
// atom's members plus O(|territory|) stamp probes — a conflicting claim
// stops at the first claimed part it meets. No hashing, no allocation
// after warm-up.
#pragma once

#include <vector>

#include "partition/part_scratch.hpp"
#include "partition/partition.hpp"

namespace ffp {

class AtomBatchScheduler {
 public:
  /// Starts a new batch over `p`'s current part-id range, dropping every
  /// claim from the previous batch.
  void begin_batch(const Partition& p);

  /// Attempts to claim `atom`'s territory for this batch. On success the
  /// territory's part ids (atom first) are appended to `claimed` and true
  /// is returned; on any overlap with an earlier claim nothing is taken
  /// and the candidate should be discarded (a *conflict*).
  bool try_claim(const Partition& p, int atom, std::vector<int>& claimed);

  /// True iff `part` is claimed in the current batch.
  bool claimed(int part) const { return claims_.seen(part); }

 private:
  PartMarkScratch claims_;     // parts owned by some accepted operation
  PartMarkScratch territory_;  // per-call dedup of the candidate's territory
};

}  // namespace ffp
