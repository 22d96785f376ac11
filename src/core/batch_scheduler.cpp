#include "core/batch_scheduler.hpp"

namespace ffp {

void AtomBatchScheduler::begin_batch(const Partition& p) {
  claims_.begin(p.num_parts());
}

bool AtomBatchScheduler::try_claim(const Partition& p, int atom,
                                   std::vector<int>& claimed) {
  // Most candidates conflict, so each part is tested as it is first
  // marked: a claimed part ends the scan at once, before the rest of the
  // territory is walked. Nothing is taken until the whole territory is
  // known to be free.
  const Graph& g = p.graph();
  territory_.begin(p.num_parts());
  if (claims_.seen(atom)) return false;
  territory_.mark(atom);
  for (VertexId v : p.members(atom)) {
    for (VertexId u : g.neighbors(v)) {
      const int q = p.part_of(u);
      if (territory_.mark(q) && claims_.seen(q)) return false;
    }
  }
  for (int q : territory_.marked()) {
    claims_.mark(q);
    claimed.push_back(q);
  }
  return true;
}

}  // namespace ffp
