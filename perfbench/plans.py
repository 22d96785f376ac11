"""Seeded input sets for the three workloads.

Everything a run feeds the program is derived here from the workload seed
alone, so the same seed always gives the same graphs, solver seeds, job
lists and open-loop schedule (test_perfbench.py checks this).
"""

import math
import random

# Step budgets (never wall-clock budgets): partitions, and so mcut_geomean,
# are a pure function of the seed.
# ff_solve gives each of its seeds its own budget, spread evenly around
# 2500 steps: job latencies then fill a range instead of forming one
# cluster per graph and engine, and the latency median does not jump
# between clusters from run to run.
FF_STEPS = (1500, 1900, 2300, 2700, 3100, 3500)
MLFF_STEPS = 8000
MLFF_SEEDS_PER_GRAPH = 6

# fleet_serve: offered rates of the open-loop ladder (jobs/s) and the
# latency limit on latency_tail_s that a rung must meet to count.
FLEET_RATES = (8.0, 16.0, 32.0)
# Share of the run each rung lasts: the middle rung, where the latency
# metrics are read, gets half, so its tail rests on more samples.
FLEET_RUNG_SHARES = (0.25, 0.5, 0.25)
FLEET_LATENCY_LIMIT_S = 0.5
FLEET_FAMILIES = ("grid2d", "torus", "atc")


def _rng(seed, salt):
    return random.Random(f"{salt}:{seed}")


def geometric_spec(n, seed):
    """Random geometric graph with average degree about 8."""
    radius = math.sqrt(8.0 / (math.pi * n))
    return f"geometric:{n},{radius:.6f},{seed}"


def ff_solve(seed, threads):
    """The paper's algorithm as an embedder calls it: four fixed graphs, six
    seeds drawn from the workload seed (one per step budget), serial and
    batched engine interleaved. The graphs stay fixed so that a different
    workload seed changes the searches and not the instances."""
    rng = _rng(seed, "ff_solve")
    graphs = [
        {"name": "atc", "spec": "atc:2006", "k": 32},
        {"name": "grid", "spec": "grid2d:128,128", "k": 64},
        {"name": "geometric", "spec": geometric_spec(16384, 2006), "k": 64},
        {"name": "powerlaw", "spec": "powerlaw:16384,8,2.5,2006", "k": 64},
    ]
    seeds = [rng.randrange(1, 1 << 30) for _ in FF_STEPS]
    jobs = []
    for gi in range(len(graphs)):
        for s, steps in zip(seeds, FF_STEPS):
            for t in (0, threads):
                jobs.append({"graph": gi, "method": "fusion_fission",
                             "seed": s, "steps": steps, "threads": t})
    batched = [i for i, j in enumerate(jobs) if j["threads"] > 0]
    sample = {"job": rng.choice(batched), "method": "fusion_fission",
              "threads": 1}
    return {"graphs": graphs, "jobs": jobs, "sample": sample,
            "from_file": False, "core_on_coarse": False}


def mlff_large(seed, threads):
    """Graphs too big for pure FF, read from METIS files: mlff with the
    batched coarse engine. Fixed graphs, seeds from the workload seed."""
    rng = _rng(seed, "mlff_large")
    graphs = [
        {"name": "grid", "spec": "grid2d:512,512", "k": 64},
        {"name": "geometric", "spec": geometric_spec(262144, 2006), "k": 64},
    ]
    seeds = [rng.randrange(1, 1 << 30) for _ in range(MLFF_SEEDS_PER_GRAPH)]
    method = f"mlff:threads={threads}"
    jobs = [{"graph": gi, "method": method, "seed": s, "steps": MLFF_STEPS,
             "threads": 0}
            for gi in range(len(graphs)) for s in seeds]
    sample = {"job": rng.randrange(len(jobs)), "method": "mlff:threads=1",
              "threads": 0}
    return {"graphs": graphs, "jobs": jobs, "sample": sample,
            "from_file": True, "core_on_coarse": True}


# Job classes (vertex count, k, steps) that every stretch of the schedule
# cycles through in a seeded order, so the mix of small and large solves is
# the same for every seed and every rung; only the graphs themselves vary.
# The small class runs 1500 steps so that its latency (which the median
# rests on) is mostly solving rather than fsync, which varies more between
# runs on a shared disk.
FLEET_CLASSES = ((100, 4, 1500), (400, 8, 1000), (1600, 16, 2000))
# Job kinds per block of 20 submissions, in a seeded order per block:
# 6 cache-read repeats, 3 fresh originals each followed 2 ms later by an
# in-flight repeat (6 submissions), 1 evolve portfolio, 7 plain fresh. So
# 45% of submissions are repeats: the median then falls just inside the
# fresh solves rather than on the step between cache reads and solves.
FLEET_BLOCK = ("repeat",) * 6 + ("dup",) * 3 + ("evolve",) + ("fresh",) * 7


def _fleet_graph(rng, n):
    """A small connected graph of about n vertices (so Mcut > 0 and its
    geometric mean is defined): a grid, a torus, or a synthetic ATC core
    area with weighted edges. ATC areas stop at 600 sectors: the core-area
    generator is the slow part of set-up at larger sizes."""
    n = int(n * rng.uniform(0.9, 1.1))
    family = rng.choice(FLEET_FAMILIES)
    if family == "atc" and n <= 600:
        return f"atc:{rng.randrange(1, 1 << 30)},{n},{4 * n}", n
    if family == "atc":
        family = "grid2d"
    rows = max(4, int(math.sqrt(n * rng.uniform(0.5, 1.0))))
    cols = max(4, n // rows)
    return f"{family}:{rows},{cols}", rows * cols


def fleet(seed, seconds):
    """The fleet_serve open-loop schedule: for each rate of the ladder, a
    fixed number of submissions (rate x rung length) at seeded due times;
    the rungs run back to back, each for its share of `seconds`.
    Kinds follow FLEET_BLOCK and sizes FLEET_CLASSES, each in a seeded
    order: fresh solves, repeats of an earlier (graph, spec) (cache reads),
    repeats sent 2 ms behind their original (in flight), and evolve
    portfolios on a graph already solved.

    Returns {"specs": [generator spec per graph], "jobs": [...]} with jobs
    sorted by due time (seconds from the start of the timed phase)."""
    rng = _rng(seed, "fleet")
    lengths = [seconds * share for share in FLEET_RUNG_SHARES]
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    specs, jobs, fresh = [], [], []
    kinds, classes = [], []

    def next_kind():
        if not kinds:
            kinds.extend(rng.sample(FLEET_BLOCK, len(FLEET_BLOCK)))
        return kinds.pop()

    def new_fresh(due, rung, cls=None):
        if cls is None:
            if not classes:
                classes.extend(rng.sample(FLEET_CLASSES, len(FLEET_CLASSES)))
            cls = classes.pop()
        n, k, steps = cls
        spec, _ = _fleet_graph(rng, n)
        specs.append(spec)
        job = {"kind": "fresh", "graph": len(specs) - 1, "k": k,
               "steps": steps, "seed": rng.randrange(1, 1 << 30), "due": due,
               "rung": rung, "repeat_of": None}
        fresh.append(job)
        return job

    for rung, rate in enumerate(FLEET_RATES):
        # One arrival at a random point of each 1/rate slot: random, but
        # without the bursts of a Poisson stream, which would make the
        # tail a property of the seed rather than of the fleet.
        count = int(round(rate * lengths[rung]))
        dues = [starts[rung] + (i + rng.random()) / rate
                for i in range(count)]
        for due in dues:
            kind = next_kind()
            if not fresh or kind == "fresh":
                jobs.append(new_fresh(due, rung))
            elif kind == "dup":
                # A small solve: still in flight 2 ms later, and a pair of
                # them stays out of the tail. Pairs of concurrent larger
                # solves on one shard made the tail hinge on where those
                # few pairs fell and on how busy the host was just then.
                orig = new_fresh(due, rung, FLEET_CLASSES[0])
                jobs.append(orig)
                jobs.append(dict(orig, kind="repeat", due=due + 0.002,
                                 repeat_of=orig))
            elif kind == "repeat":
                orig = rng.choice(fresh)
                jobs.append(dict(orig, kind="repeat", due=due, rung=rung,
                                 repeat_of=orig))
            else:
                orig = rng.choice(fresh)
                jobs.append({"kind": "evolve", "graph": orig["graph"],
                             "k": orig["k"], "steps": 500,
                             "seed": rng.randrange(1, 1 << 30), "due": due,
                             "rung": rung, "repeat_of": None})
    jobs.sort(key=lambda j: j["due"])
    for i, job in enumerate(jobs):
        job["id"] = f"j{i}"
    for job in jobs:
        if job["repeat_of"] is not None:
            job["repeat_of"] = job["repeat_of"]["id"]
    return {"specs": specs, "jobs": jobs, "rung_starts": starts,
            "rung_lengths": lengths, "rates": list(FLEET_RATES)}


def submit_line(job, graph_json):
    """The wire submit for one fleet job (inline graph, serial FF, Mcut)."""
    extra = ',"evolve":true,"restarts":2' if job["kind"] == "evolve" else ""
    return ('{"op":"submit","id":"%s","graph":%s,"k":%d,'
            '"method":"fusion_fission","objective":"mcut","seed":%d,'
            '"steps":%d%s}' % (job["id"], graph_json, job["k"], job["seed"],
                               job["steps"], extra))
