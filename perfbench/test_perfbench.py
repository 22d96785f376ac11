"""Tests of the benchmark's own arithmetic and of its seeded inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plans  # noqa: E402
import stats  # noqa: E402
from run import check_wire, mcut  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        xs = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(xs)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_order_does_not_matter(self):
        xs = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 11, 12, 0]
        self.assertEqual(stats.tail(xs), stats.tail(sorted(xs)))
        value, pct, n = stats.tail(xs)
        self.assertEqual(value, 2)  # 13 samples: the 3rd smallest
        self.assertAlmostEqual(pct, 100.0 * 3 / 13)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(stats.tail([]), (0.0, 0.0, 0))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(stats.geomean([1, 10, 100]), 10.0)
        self.assertAlmostEqual(stats.geomean([3.5]), 3.5)

    def test_scale_free(self):
        xs = [0.3, 1.7, 12.0]
        self.assertAlmostEqual(stats.geomean([10 * x for x in xs]),
                               10 * stats.geomean(xs))

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class SelfTimeTest(unittest.TestCase):
    def span(self, i, start, end, parent=-1):
        return {"id": i, "name": f"s{i}", "start": start, "end": end,
                "parent": parent, "request": 0}

    def test_children_are_subtracted_once(self):
        spans = [self.span(0, 0.0, 10.0),
                 self.span(1, 1.0, 4.0, 0),
                 self.span(2, 3.0, 6.0, 0),   # overlaps child 1
                 self.span(3, 8.0, 12.0, 0),  # runs past its parent
                 self.span(4, 1.5, 2.0, 1)]   # grandchild: only in span 1
        self_s = stats.self_times(spans)
        self.assertAlmostEqual(self_s[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(self_s[1], 3.0 - 0.5)
        self.assertAlmostEqual(self_s[2], 3.0)
        self.assertAlmostEqual(self_s[4], 0.5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([self.span(0, 2.0, 2.5)]), {0: 0.5})


class SeededInputsTest(unittest.TestCase):
    def test_offline_plans_repeat_per_seed(self):
        for make in (plans.ff_solve, plans.mlff_large):
            self.assertEqual(make(7, 4), make(7, 4))
            self.assertNotEqual(make(7, 4), make(8, 4))

    def test_fleet_schedule_repeats_per_seed(self):
        a, b = plans.fleet(3, 20.0), plans.fleet(3, 20.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a["jobs"], plans.fleet(4, 20.0)["jobs"])

    def test_fleet_schedule_shape(self):
        plan = plans.fleet(11, 30.0)
        jobs = plan["jobs"]
        dues = [j["due"] for j in jobs]
        self.assertEqual(dues, sorted(dues))
        per_rung = [sum(1 for j in jobs if j["rung"] == r)
                    for r in range(len(plan["rates"]))]
        for rate, length, count in zip(plan["rates"], plan["rung_lengths"],
                                       per_rung):
            # rate x rung length jobs, plus in-flight duplicates
            self.assertGreaterEqual(count, round(rate * length))
        self.assertAlmostEqual(sum(plan["rung_lengths"]), 30.0)
        ids = {j["id"]: j for j in jobs}
        for j in jobs:
            if j["kind"] == "repeat":
                orig = ids[j["repeat_of"]]
                self.assertEqual(orig["kind"], "fresh")
                self.assertLessEqual(orig["due"], j["due"])
                for key in ("graph", "k", "steps", "seed"):
                    self.assertEqual(orig[key], j[key])
        kinds = [j["kind"] for j in jobs]
        self.assertAlmostEqual(kinds.count("repeat") / len(jobs), 0.45,
                               delta=0.02)
        self.assertGreater(kinds.count("evolve"), 0)


class WireCheckTest(unittest.TestCase):
    """The fleet's output check: value recomputed from scratch, k parts,
    repeats byte-identical to their original."""
    edges = [[0, 1], [1, 2], [2, 3], [3, 0, 2.0]]

    def result(self, jid, parts, value):
        return {"line": '{"event":"result","id":"%s","state":"done",'
                        '"value":%r,"seconds":0.1,"partition":%s}'
                        % (jid, value, str(parts).replace(" ", ""))}

    def test_mcut_from_scratch(self):
        # parts {0,1} and {2,3}: cut edges (1,2) w1 and (3,0) w2 -> cut 3
        # each side; internal 2*1 each side.
        self.assertAlmostEqual(mcut(4, self.edges, [0, 0, 1, 1]), 3.0)

    def test_accepts_good_and_flags_bad(self):
        jobs = [{"id": "a", "kind": "fresh", "graph": 0, "k": 2},
                {"id": "b", "kind": "repeat", "graph": 0, "k": 2,
                 "repeat_of": "a"},
                {"id": "c", "kind": "fresh", "graph": 0, "k": 2},
                {"id": "d", "kind": "repeat", "graph": 0, "k": 2,
                 "repeat_of": "a"}]
        records = [self.result("a", [0, 0, 1, 1], 3.0),
                   self.result("b", [0, 0, 1, 1], 3.0),
                   self.result("c", [0, 0, 1, 1], 2.5),   # wrong value
                   self.result("d", [1, 1, 0, 0], 3.0)]   # not identical
        failures, values = check_wire(jobs, records, [(4, self.edges)])
        self.assertEqual([f.split(" ")[0] for f in failures], ["c", "d"])
        self.assertEqual(values, [3.0])
        self.assertTrue(math.isclose(stats.geomean(values), 3.0))


if __name__ == "__main__":
    unittest.main()
