#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload ff_solve --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. It builds perfbench_inproc and the two server
binaries from source (into $CARGO_TARGET_DIR, default .bench_build), makes
every input from --seed, measures for --seconds, checks every output, and
prints as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
run and reports the per-layer metrics (see perfbench/README.md).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import fleet as fl  # noqa: E402
import plans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("ff_solve", "mlff_large", "fleet_serve")
# Host-speed normalization of the offline workloads. The development host
# is a shared VM whose speed drifts by up to a third between runs, and all
# in-process work drifts with it. perfbench_inproc times a fixed integer
# burn (ref_burn in inproc.cpp, built with perfbench's own flags, so no
# change to the program can change it) right before every job, on as many
# threads as the job uses. Each job's latency is reported at reference
# speed, raw * REF_BURN_S / median(burn of the jobs of its width); set-up
# and CPU time are scaled by the one-thread burn. REF_BURN_S is the
# one-thread burn's median on the quiet development host and only sets the
# scale. Raw values and the factors are printed.
# fleet_serve is not scaled: its time is spent in other processes, on the
# network and in fsync, and a burn run alongside it did not track it.
REF_BURN_S = 0.0038
SETUP_REPEATS = 3
SHARD_RUNNERS = 2  # per shard; two shards, so the fleet's solver threads <= 4
ERROR_CODES = ("bad_request", "unknown_job", "forbidden", "job_failed",
               "cancelled", "internal", "overloaded", "queue_expired",
               "timeout", "conn_lost", "shutting_down")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench:", message)
    sys.exit(1)


# ------------------------------------------------------------------ build ---

def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no repository sources next to perfbench/ (need CMakeLists.txt "
             "and src/ in the checkout root)")
    bindir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bindir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bindir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bindir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bindir


def inproc(bindir, *args):
    cmd = [os.path.join(bindir, "perfbench_inproc"), *args]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    if res.returncode:
        fail(f"perfbench_inproc {args[0]} failed with code {res.returncode}")
    return res.stdout


def read_json(path):
    with open(path) as f:
        return json.load(f)


def write_json(path, value):
    with open(path, "w") as f:
        json.dump(value, f)


# ------------------------------------------------------- offline workloads ---

def run_offline(args, bindir, workdir, threads):
    make = plans.ff_solve if args.workload == "ff_solve" else plans.mlff_large
    plan = make(args.seed, threads)
    plan.update(seconds=args.seconds, trace=bool(args.trace), workdir=workdir,
                threads=threads, setup_repeats=SETUP_REPEATS)
    plan_path = os.path.join(workdir, "plan.json")
    out_path = os.path.join(workdir, "inproc.json")
    write_json(plan_path, plan)
    inproc(bindir, "offline", plan_path, out_path)
    raw = read_json(out_path)
    for why in raw["failures"]:
        log("check failed:", why)

    rounds = raw["rounds"]
    records = raw["records"]
    completed = sum(1 for r in records if r["ok"])
    # Host speed per job width (serial jobs and batched jobs burn on 1 and
    # on `threads` threads), relative to the reference.
    width = {}
    for r in records:
        width.setdefault(plan["jobs"][r["job"]]["threads"], []).append(
            r["burn_s"])
    speed = {w: stats.median(b) / REF_BURN_S for w, b in width.items()}
    one = speed[min(speed)]
    for w, f in sorted(speed.items()):
        print(f"host speed: median burn on {max(1, w)} thread(s) "
              f"{f * REF_BURN_S:.6f} s; those jobs' latencies divided by "
              f"{f:.4f}", flush=True)
    latencies = [r["latency_s"] / speed[plan["jobs"][r["job"]]["threads"]]
                 for r in records]
    # Throughput from each job's median latency over the rounds: a burst of
    # contention on a shared host then moves one sample of a job, not the
    # whole figure. Traced rounds are left out.
    untraced = {i for i, r in enumerate(rounds) if not r["traced"]}
    per_job, per_graph, raw_job = {}, {}, {}
    for r, latency in zip(records, latencies):
        if r["round"] in untraced:
            per_job.setdefault(r["job"], []).append(latency)
            raw_job.setdefault(r["job"], []).append(r["latency_s"])
        per_graph.setdefault(plan["jobs"][r["job"]]["graph"], []).append(
            latency)
    tail_v, tail_p, tail_n = stats.tail(latencies)
    raw_jobs_per_s = len(raw_job) / sum(
        stats.median(v) for v in raw_job.values())
    print(f"raw jobs_per_s = {raw_jobs_per_s:.6g}; raw setup_s = "
          f"{stats.median(raw['setup_s']):.6g}; raw cpu_s_per_job = "
          f"{raw['timed_cpu_s'] / max(1, completed):.6g}", flush=True)
    result = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "tail": (tail_p, tail_n),
        "metrics": {
            "setup_s": stats.median(raw["setup_s"]) / one,
            "jobs_per_s": len(per_job) / sum(
                stats.median(v) for v in per_job.values()),
            # Median per graph, geometric mean over the graphs (as for
            # mcut_geomean): the graphs' latencies form separate clusters,
            # and a median over all jobs at once falls in the gap between
            # two of them, where it jumps with small shifts of either.
            "latency_p50_s": stats.geomean(
                stats.median(v) for v in per_graph.values()),
            "latency_tail_s": tail_v,
            "mcut_geomean": stats.geomean(raw["mcut"]) if raw["mcut"] else 0,
            "cpu_s_per_job": raw["timed_cpu_s"] / max(1, completed) / one,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        },
    }
    if not args.trace:
        return result, None

    layers = inproc_layers(raw["layers"], spans_path=os.path.join(
        workdir, "spans.json"))
    traced = [r["seconds"] for r in rounds if r["traced"]]
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    layers["trace.overhead_s"] = (stats.median(traced)
                                  - stats.median(untraced)) / len(plan["jobs"])
    # The wire layers, on this workload's own jobs sent as graph_file
    # submits through a fresh fleet.
    wire_jobs, wire_lines = offline_wire_plan(plan, workdir)
    _, wire_layers, failures, _ = wire_pass(bindir, workdir, wire_jobs,
                                            wire_lines, threads, tracer=None)
    for why in failures[:20]:
        log("check failed (wire):", why)
    result["attempted"] += len(wire_jobs)
    result["failed"] += len(failures)
    layers.update(wire_layers)
    return result, layers


def offline_wire_plan(plan, workdir):
    """Each distinct job of an offline workload once over the wire with an
    in-flight duplicate right behind it; then, once those have had time to
    finish, one repeat of each (a cache read)."""
    gap = 1.0 if plan["from_file"] else 0.3
    settle = len(plan["jobs"]) * gap + 2.0
    jobs, lines = [], []
    for i, j in enumerate(plan["jobs"]):
        g = plan["graphs"][j["graph"]]
        base = {"graph": j["graph"], "k": g["k"], "steps": j["steps"],
                "seed": j["seed"], "method": j["method"],
                "threads": j["threads"], "rung": 0}
        orig = dict(base, kind="fresh", due=i * gap, repeat_of=None)
        jobs.append(orig)
        jobs.append(dict(base, kind="repeat", due=i * gap + 0.002,
                         repeat_of=orig))
        jobs.append(dict(base, kind="repeat", due=settle + i * 0.05,
                         repeat_of=orig))
    for n, job in enumerate(jobs):
        job["id"] = f"w{n}"
    for job in jobs:
        if job["repeat_of"] is not None:
            job["repeat_of"] = job["repeat_of"]["id"]
        path = os.path.join(workdir, plan["graphs"][job["graph"]]["name"]
                            + ".graph")
        lines.append('{"op":"submit","id":"%s","graph_file":%s,"k":%d,'
                     '"method":%s,"objective":"mcut","seed":%d,"steps":%d,'
                     '"threads":%d}' % (job["id"], json.dumps(path), job["k"],
                                        json.dumps(job["method"]),
                                        job["seed"], job["steps"],
                                        job["threads"]))
    return jobs, lines


def inproc_layers(samples, spans_path):
    """Per-layer metrics from perfbench_inproc's raw samples and spans."""
    def med(name):
        return stats.median(samples.get(name, []))

    def total(name):
        return sum(samples.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    init = samples.get("core.init_s", [])
    serial = samples.get("core.serial_s", [])
    batched = samples.get("core.batched_s", [])
    loops = [s - i for s, i in zip(serial, init)]
    bloops = [b - i for b, i in zip(batched, init)]
    ml_rest = [t - c - s for t, c, s in zip(
        samples.get("multilevel.total_s", []),
        samples.get("multilevel.coarsen_s", []),
        samples.get("multilevel.coarse_solve_s", []))]
    out = {
        "core.init_s": med("core.init_s"),
        "core.loop_s": stats.median(loops),
        "core.steps_per_s.serial": ratio(total("core.serial_steps"), sum(loops)),
        "core.steps_per_s.batched": ratio(total("core.batched_steps"),
                                          sum(bloops)),
        "core.cpu_per_wall": ratio(total("core.batched_cpu_s"), sum(batched)),
        "core.conflict_ratio": ratio(total("core.conflicts"),
                                     total("core.batched_steps")
                                     + total("core.conflicts")),
        "core.stale_ratio": ratio(total("core.stale_redone"),
                                  total("core.batched_steps")),
        "core.fission_share": ratio(total("core.fissions"),
                                    total("core.fissions")
                                    + total("core.fusions")),
        "multilevel.coarsen_s": med("multilevel.coarsen_s"),
        "multilevel.coarse_solve_s": med("multilevel.coarse_solve_s"),
        "multilevel.project_refine_s": stats.median(ml_rest),
        "multilevel.refine_move_ratio": ratio(total("multilevel.refine_moves"),
                                              total("multilevel.refine_attempts")),
        "multilevel.levels": ratio(total("multilevel.levels"),
                                   len(samples.get("multilevel.levels", []))),
        "multilevel.coarse_vertices": ratio(
            total("multilevel.coarse_vertices"),
            len(samples.get("multilevel.coarse_vertices", []))),
        "graph.read_s": med("graph.read_s"),
        "graph.read_mb_per_s": ratio(total("graph.read_bytes") / 1e6,
                                     total("graph.read_s")),
        "graph.digest_s": med("graph.digest_s"),
        "graph.generate_s": med("graph.generate_s"),
        "service.parse_s": med("service.parse_s"),
        "service.format_s": med("service.format_s"),
        "service.result_bytes_per_job": ratio(
            total("service.result_bytes"),
            len(samples.get("service.result_bytes", []))),
        "persist.write_s": med("persist.write_s"),
    }
    spans = read_json(spans_path)
    selfs = stats.self_times(spans)
    out["api.submit_s"] = stats.median(
        [s["end"] - s["start"] for s in spans if s["name"] == "api.submit"])
    out["api.solve_s"] = stats.median(
        [s["end"] - s["start"] for s in spans if s["name"] == "api.solve"])
    out["api.queue_wait_s"] = stats.median(
        [selfs[s["id"]] for s in spans if s["name"] == "api.wait"])
    return out


# ------------------------------------------------------------------- wire ---

MCUT_PENALTY = 1e6  # the library's zero-denominator penalty


def mcut(n, edges, parts):
    """Mcut from scratch: sum over parts of cut / (2 x internal weight)."""
    k = max(parts) + 1
    cut, internal = [0.0] * k, [0.0] * k
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1.0
        pu, pv = parts[u], parts[v]
        if pu == pv:
            internal[pu] += 2 * w
        else:
            cut[pu] += w
            cut[pv] += w
    total = 0.0
    for c, i in zip(cut, internal):
        if c > 0:
            total += c * MCUT_PENALTY if i <= 0 else c / i
    return total


_VALUE = re.compile(r'"value":([^,}]*)')


def check_wire(jobs, records, graphs):
    """Checks every wire result. Returns (failures, values of distinct
    deterministic jobs). `graphs[i]` is (n, edges) or None when the graph
    travelled as a file (then only structure and repeats are checked)."""
    by_id = {j["id"]: r for j, r in zip(jobs, records)}
    failures, values = [], []
    for job, rec in zip(jobs, records):
        line = rec["line"] or ""
        why = None
        if not line.startswith('{"event":"result"'):
            why = "no result: " + line[:200]
        else:
            res = json.loads(line)
            parts = res.get("partition", [])
            if res.get("state") != "done":
                why = "state " + str(res.get("state"))
            elif len(set(parts)) != job["k"] or min(parts) < 0:
                why = f"{len(set(parts))} non-empty parts, expected {job['k']}"
            elif job["kind"] == "repeat":
                orig = by_id[job["repeat_of"]]["line"] or ""
                same_parts = (line[line.index('"partition":'):]
                              == orig[orig.find('"partition":'):])
                value = _VALUE.search(orig)
                if not same_parts or value is None or \
                        value.group(1) != _VALUE.search(line).group(1):
                    why = "repeat differs from its original"
            elif graphs[job["graph"]] is not None:
                n, edges = graphs[job["graph"]]
                fresh = mcut(n, edges, parts) if len(parts) == n else None
                if fresh is None:
                    why = f"{len(parts)} part ids for {n} vertices"
                elif abs(fresh - res["value"]) > 1e-9 * max(1.0, abs(fresh)):
                    why = f"reported {res['value']} != evaluated {fresh}"
            if why is None and job["kind"] == "fresh":
                values.append(res["value"])
        if why:
            failures.append(f"{job['id']} ({job['kind']}): {why}")
    return failures, values


def shard_counters(port, tag):
    """Host-wide counters of one shard, via a status op on a one-job
    direct session (the probe job adds one cache miss, subtracted here)."""
    graph = '{"n":4,"edges":[[0,1],[1,2],[2,3]]}'
    replies = fl.request(port, [
        '{"op":"submit","id":"%s","graph":%s,"k":2,"steps":10,"seed":%d}'
        % (tag, graph, 1),
        '{"op":"result","id":"%s"}' % tag,
        '{"op":"status","id":"%s"}' % tag], 3)
    status = replies[2]
    status["cache_misses"] = status.get("cache_misses", 1) - 1
    return status


def router_overhead(fleet, lines, count=6, repeats=3):
    """The same cache-hit submits sent through the router and straight to
    a shard that holds them; median(router) - median(direct) per request."""
    def one(conn, line, tag):
        conn.send((re.sub(r'"id":"[^"]*"', '"id":"%s"' % tag, line, count=1)
                   + '\n{"op":"result","id":"%s"}\n' % tag).encode())
        conn.sock.setblocking(True)
        got = []
        while len(got) < 2:
            got.extend(conn.lines())
        conn.sock.setblocking(False)
        return got

    router = fl.Conn(fleet.router_port)
    direct = fl.Conn(fleet.shard_ports[0])
    other = fl.Conn(fleet.shard_ports[1])
    via_router, via_direct = [], []
    try:
        for i, line in enumerate(lines[:count]):
            one(direct, line, f"pd{i}")  # both shards now hold the result
            one(other, line, f"po{i}")
            for r in range(repeats):
                t = time.perf_counter()
                one(router, line, f"pr{i}.{r}")
                via_router.append(time.perf_counter() - t)
                t = time.perf_counter()
                one(direct, line, f"pd{i}.{r}")
                via_direct.append(time.perf_counter() - t)
    finally:
        for c in (router, direct, other):
            c.close()
    return stats.median(via_router) - stats.median(via_direct)


def wire_pass(bindir, workdir, jobs, lines, conns, tracer, graphs=None,
              setup_fleet=None):
    """Runs `jobs` open loop through a fleet (a fresh one unless given) and
    returns (end-to-end pieces, per-layer metrics, failures, fresh values)."""
    fleet = setup_fleet
    if fleet is None:
        wire_dir = os.path.join(workdir, "wire")
        os.makedirs(wire_dir)
        fleet = fl.Fleet(os.path.join(bindir, "ffp"), wire_dir, SHARD_RUNNERS)
    try:
        bytes0 = fl.state_bytes(fleet.state_dirs)
        cpu0 = fleet.cpu_s()
        records = fl.run_open_loop(fleet.router_port, jobs, lines, conns,
                                   tracer)
        cpu = fleet.cpu_s() - cpu0
        grown = fl.state_bytes(fleet.state_dirs) - bytes0
        rss_kb = fleet.peak_rss_kb()
        counters = [shard_counters(p, f"status{i}")
                    for i, p in enumerate(fleet.shard_ports)]
        fresh_lines = [l for j, l in zip(jobs, lines) if j["kind"] == "fresh"]
        overhead = router_overhead(fleet, fresh_lines[:6 if graphs else 2])
    finally:
        fleet.stop()

    failures, values = check_wire(jobs, records, graphs or [None] * (
        1 + max(j["graph"] for j in jobs)))
    sent = len(jobs)
    repeats = [j for j in jobs if j["kind"] == "repeat"]
    by_id = {j["id"]: r for j, r in zip(jobs, records)}
    inflight = sum(1 for j, r in zip(jobs, records) if j["kind"] == "repeat"
                   and r["sent"] < (by_id[j["repeat_of"]]["done"] or 0))
    codes = {c: 0 for c in ERROR_CODES}
    for r in records:
        if r["line"] and r["line"].startswith('{"event":"error"'):
            code = json.loads(r["line"]).get("code")
            codes[code if code in codes else "internal"] += 1
    hits = sum(c.get("cache_hits", 0) for c in counters)
    misses = [c.get("cache_misses", 0) for c in counters]
    admitted = sum(c.get("archive_admitted", 0) for c in counters)
    offers = sum(misses) + sum(c.get("migrations_received", 0)
                               for c in counters)
    done = sum(1 for r in records if r["done"] is not None)
    late = [r["sent"] - r["due"] for r in records]
    layers = {
        "service.ack_s": stats.median([r["ack"] - r["sent"] for r in records]),
        "net.wakeups_per_job": sum(c.get("loop_wakeups", 0)
                                   for c in counters) / max(1, done),
        "net.conns_total": sum(c.get("conns_total", 0) for c in counters),
        "shard.router_overhead_s": overhead,
        "shard.affinity_ratio": hits / len(repeats) if repeats else 0.0,
        "shard.load_skew": (max(misses) / (sum(misses) / len(misses))
                            if sum(misses) else 0.0),
        "shard.migrations_per_job": sum(c.get("migrations_sent", 0)
                                        for c in counters) / max(1, done),
        "persist.bytes_per_job": grown / max(1, done),
        "loadgen.late_s": stats.tail(late)[0],
        "loadgen.repeat_share": len(repeats) / sent,
        "loadgen.inflight_dup_share": inflight / sent,
        "loadgen.sent": sent,
        "api.cache_hit_ratio": hits / (hits + sum(misses))
        if hits + sum(misses) else 0.0,
        "evolve.admit_ratio": admitted / offers if offers else 0.0,
        "evolve.snapshot_hit_ratio": stats.median(
            [c.get("archive_hit_rate", 0.0) or 0.0 for c in counters]),
    }
    for code, count in codes.items():
        layers[f"service.errors.{code}"] = count
    e2e = {"records": records, "cpu_s": cpu, "rss_kb": rss_kb}
    return e2e, layers, failures, values


# -------------------------------------------------------------- fleet_serve ---

def fleet_setup(bindir, workdir, plan, rep):
    """One set-up: generate the graphs, build the wire lines, start a fresh
    fleet and wait until it answers, warm it up with one job."""
    t0 = time.perf_counter()
    specs_path = os.path.join(workdir, "specs.txt")
    graphs_path = os.path.join(workdir, "graphs.jsonl")
    with open(specs_path, "w") as f:
        f.write("\n".join(plan["specs"]) + "\n")
    inproc(bindir, "graphs", specs_path, graphs_path)
    with open(graphs_path) as f:
        raw = f.read().splitlines()
    lines = [plans.submit_line(j, raw[j["graph"]]) for j in plan["jobs"]]
    rep_dir = os.path.join(workdir, f"fleet{rep}")
    os.makedirs(rep_dir)
    fleet = fl.Fleet(os.path.join(bindir, "ffp"), rep_dir, SHARD_RUNNERS)
    try:
        warm = fl.request(fleet.router_port, [
            '{"op":"submit","id":"warm","graph":{"n":16,"edges":[%s]},"k":2,'
            '"steps":200,"seed":1}' % ",".join(f"[{i},{i + 1}]"
                                                for i in range(15)),
            '{"op":"result","id":"warm"}'], 2)
    except Exception:
        fleet.stop()
        raise
    if warm[1].get("event") != "result":
        fleet.stop()
        fail(f"fleet warm-up failed: {warm[1]}")
    return time.perf_counter() - t0, fleet, raw, lines


def run_fleet(args, bindir, workdir, threads):
    plan = plans.fleet(args.seed, args.seconds)
    jobs = plan["jobs"]
    setups, fleet = [], None
    for rep in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.stop()
        seconds, fleet, raw, lines = fleet_setup(bindir, workdir, plan, rep)
        setups.append(seconds)
    tracer = fl.Tracer() if args.trace else None
    e2e, layers, failures, values = wire_pass(
        bindir, workdir, jobs, lines, min(4, threads), tracer,
        graphs=[(g["n"], g["edges"]) for g in map(json.loads, raw)],
        setup_fleet=fleet)
    for why in failures[:20]:
        log("check failed:", why)
    records = e2e["records"]

    # Per rung: latency from due time; a rung meets the limit when its tail
    # is under the limit, nothing failed, and the backlog did not grow (the
    # last quarter of its sends is not later than the limit).
    ok_ids = {j["id"] for j in jobs} - {f.split(" ")[0] for f in failures}
    rungs = []
    for rung, rate in enumerate(plan["rates"]):
        idx = [i for i, j in enumerate(jobs) if j["rung"] == rung]
        lat = [records[i]["done"] - records[i]["due"] for i in idx]
        late = [records[i]["sent"] - records[i]["due"] for i in idx]
        tail_v, tail_p, tail_n = stats.tail(lat)
        last = late[len(late) * 3 // 4:]
        start = plan["rung_starts"][rung]
        span = max(records[i]["done"] for i in idx) - start
        rungs.append({
            "rate": rate, "p50": stats.median(lat), "tail": tail_v,
            "tail_p": tail_p, "n": tail_n,
            "throughput": len(idx) / span,
            "meets": (tail_v <= plans.FLEET_LATENCY_LIMIT_S
                      and all(jobs[i]["id"] in ok_ids for i in idx)
                      and stats.median(last) <= plans.FLEET_LATENCY_LIMIT_S),
        })
        log(f"rung {rate:g}/s: p50 {rungs[-1]['p50']:.4f}s "
            f"p{tail_p:.1f} {tail_v:.4f}s (n={tail_n}) "
            f"throughput {rungs[-1]['throughput']:.2f}/s "
            f"meets={rungs[-1]['meets']}")
    passing = [r for r in rungs if r["meets"]]
    mid = rungs[len(rungs) // 2]
    completed = sum(1 for r in records if r["done"] is not None)
    write_json(os.path.join(workdir, "records.json"),
               [dict(r, kind=j["kind"], graph=j["graph"], k=j["k"],
                     steps=j["steps"], line=None)
                for j, r in zip(jobs, records)])
    result = {
        "attempted": len(jobs),
        "failed": len(failures),
        "tail": (mid["tail_p"], mid["n"]),
        "metrics": {
            "setup_s": stats.median(setups),
            "jobs_per_s": passing[-1]["throughput"] if passing else 0.0,
            "latency_p50_s": mid["p50"],
            "latency_tail_s": mid["tail"],
            "mcut_geomean": stats.geomean(values) if values else 0.0,
            "cpu_s_per_job": e2e["cpu_s"] / max(1, completed),
            "peak_rss_mb": e2e["rss_kb"] / 1024.0,
        },
    }
    if not args.trace:
        return result, None

    traced = [r["done"] - r["due"] for r in records if r["traced"]]
    untraced = [r["done"] - r["due"] for r in records if not r["traced"]]
    layers["trace.overhead_s"] = stats.median(traced) - stats.median(untraced)
    write_json(os.path.join(workdir, "spans.json"), tracer.spans)
    # In-process replay of the same lines into a shard-like Engine, plus
    # layer probes on a seeded sample of the fleet's fresh graphs.
    lines_path = os.path.join(workdir, "lines.jsonl")
    with open(lines_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    fresh = [i for i, j in enumerate(jobs) if j["kind"] == "fresh"]
    probes = [{"line": i, "spec": plan["specs"][jobs[i]["graph"]]}
              for i in fresh[::max(1, len(fresh) // 12)][:12]]
    replay_plan = {"workdir": workdir, "threads": threads,
                   "shard_runners": SHARD_RUNNERS, "lines": lines_path,
                   "due": [j["due"] for j in jobs], "probes": probes}
    plan_path = os.path.join(workdir, "replay-plan.json")
    write_json(plan_path, replay_plan)
    out_path = os.path.join(workdir, "replay.json")
    inproc(bindir, "replay", plan_path, out_path)
    replay = inproc_layers(read_json(out_path)["layers"],
                           os.path.join(workdir, "replay-spans.json"))
    layers.update(replay)
    return result, layers


# ------------------------------------------------------------------- main ---

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.path.dirname(HERE)
    bindir = build(root)
    host = json.loads(inproc(bindir, "host"))
    threads = min(4, host["nproc"])
    print("host " + json.dumps(host), flush=True)

    out_root = os.path.abspath(".bench_out")
    workdir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "fleet_serve":
            result, layers = run_fleet(args, bindir, workdir, threads)
        else:
            result, layers = run_offline(args, bindir, workdir, threads)
    finally:
        # Keep the spans and plans; drop the bulky graphs and state dirs.
        for name in os.listdir(workdir):
            path = os.path.join(workdir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif name.endswith((".graph", ".jsonl")):
                os.remove(path)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    metrics["success_ratio"] = (attempted - failed) / attempted
    tail_p, tail_n = result["tail"]
    print(f"host nproc={host['nproc']} effective_parallelism="
          f"{host['effective_parallelism']:.2f} compiler={host['compiler']} "
          f"build_type={host['build_type']}", flush=True)
    print(f"jobs attempted={attempted} succeeded={attempted - failed} "
          f"failed={failed}", flush=True)
    print(f"latency_tail_s is p{tail_p:.1f} of n={tail_n} samples", flush=True)
    units = {"setup_s": "s", "jobs_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "mcut_geomean": "Mcut",
             "cpu_s_per_job": "s", "peak_rss_mb": "MB", "success_ratio": "ratio"}
    if args.trace:
        layers["host.nproc"] = host["nproc"]
        layers["host.effective_parallelism"] = host["effective_parallelism"]
        out = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in sorted(layers.items())}
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


def layer_unit(name):
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if ".steps_per_s." in name:
        return "1/s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_share", "_skew", "per_wall",
                      "parallelism")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
