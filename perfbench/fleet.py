"""The fleet under test and the open-loop load generator that drives it.

Topology: one generator process holding at most `conns` connections to
ffp_router, which fronts two ffp_serve shards. Each shard gets the default
transport (no transport flag, so a transport change shows up as a change in
the numbers rather than a broken command line), a fresh --state-dir, the
default cache, --peers naming the other shard, and a solver budget; the
budgets sum to at most nproc.

A `result` op blocks its connection until the job ends, so each connection
carries one job at a time (submit + result written together). A job whose
due time arrives while every connection is busy waits in the generator and
is sent late; its latency still runs from its due time and the lateness is
recorded, so a stalled fleet shows as latency and lateness and the open
loop never silently turns into a closed one.
"""

import json
import os
import selectors
import signal
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_ports(count):
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime


def proc_peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Fleet:
    """Two shards plus a router, started fresh in `workdir`."""

    def __init__(self, bindir, workdir, shard_runners):
        self.procs = []
        self.logs = []
        try:
            self._start(bindir, workdir, shard_runners)
        except BaseException:
            self.stop()
            raise

    def _start(self, bindir, workdir, shard_runners):
        ports = free_ports(3)
        self.shard_ports, self.router_port = ports[:2], ports[2]
        for i, port in enumerate(self.shard_ports):
            peer = self.shard_ports[1 - i]
            state = os.path.join(workdir, f"state{i}")
            os.makedirs(state, exist_ok=True)
            self._spawn([os.path.join(bindir, "ffp_serve"), "--listen",
                         str(port), "--runners", str(shard_runners),
                         "--budget", str(shard_runners), "--state-dir", state,
                         "--peers", str(peer)], workdir, f"shard{i}")
        self._spawn([os.path.join(bindir, "ffp_router"), "--listen",
                     str(self.router_port), "--shards",
                     ",".join(map(str, self.shard_ports))], workdir, "router")
        self.state_dirs = [os.path.join(workdir, f"state{i}") for i in (0, 1)]
        for port in self.shard_ports + [self.router_port]:
            self._wait_ready(port)

    def _spawn(self, argv, workdir, name):
        log = open(os.path.join(workdir, f"{name}.log"), "w")
        self.logs.append(log)
        self.procs.append(subprocess.Popen(argv, stdout=log, stderr=log))

    def _wait_ready(self, port, timeout=20.0):
        deadline = time.perf_counter() + timeout
        while True:
            for p in self.procs:
                if p.poll() is not None:
                    raise RuntimeError(f"fleet process exited early: {p.args}")
            try:
                socket.create_connection(("127.0.0.1", port), 1.0).close()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"port {port} never became ready")
                time.sleep(0.005)

    def cpu_s(self):
        return sum(proc_cpu_s(p.pid) for p in self.procs)

    def peak_rss_kb(self):
        return sum(proc_peak_rss_kb(p.pid) for p in self.procs)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for log in self.logs:
            log.close()
        self.procs = []
        self.logs = []


def state_bytes(dirs):
    total = 0
    for d in dirs:
        for root, _, files in os.walk(d):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(root, f))
                except OSError:
                    pass
    return total


def quickack(sock):
    """ACK at once instead of on the kernel's delayed-ACK timer. The servers
    write `ack` and `result` as two small writes without TCP_NODELAY, so a
    client that delays its ACK holds every fast result back by up to 40 ms;
    with that timer in the loop, latency would measure the client kernel.
    Linux resets the flag after each ACK, so it is set after every read."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = b""
        self.job = None

    def send(self, data):
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)
        quickack(self.sock)

    def lines(self):
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        quickack(self.sock)
        if not chunk:
            raise ConnectionError("connection closed by the fleet")
        self.buf += chunk
        *done, self.buf = self.buf.split(b"\n")
        return done

    def close(self):
        self.sock.close()


def request(port, lines, expect):
    """Blocking helper: send `lines` on a fresh connection and return the
    first `expect` response lines (decoded JSON)."""
    with socket.create_connection(("127.0.0.1", port), 30) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall("".join(l + "\n" for l in lines).encode())
        buf, out = b"", []
        while len(out) < expect:
            chunk = s.recv(1 << 20)
            if not chunk:
                raise ConnectionError("connection closed early")
            quickack(s)
            buf += chunk
            *done, buf = buf.split(b"\n")
            out.extend(json.loads(l) for l in done)
        return out[:expect]


class Tracer:
    """In-memory spans (name, start, end, parent, request id), written out
    when the run ends."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=-1, request=-1):
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "request": request})
        return len(self.spans) - 1


def run_open_loop(port, jobs, lines, conns, tracer=None):
    """Sends every job at its due time (seconds after the start) over at
    most `conns` connections. Returns per-job records with monotonic times
    relative to the start: due, sent, ack, done and the raw terminal line.
    With a tracer, every other job records its spans (`traced` marks them),
    so tracing overhead is the latency difference between the two halves."""
    sel = selectors.DefaultSelector()
    pool = [Conn(port) for _ in range(conns)]
    for c in pool:
        sel.register(c.sock, selectors.EVENT_READ, c)
    idle = list(pool)
    records = [{"due": j["due"], "sent": None, "ack": None, "done": None,
                "line": None, "lines": 0,
                "traced": tracer is not None and i % 2 == 0}
               for i, j in enumerate(jobs)]
    order = sorted(range(len(jobs)), key=lambda i: jobs[i]["due"])
    nxt, waiting, finished = 0, [], 0
    deadline = max((j["due"] for j in jobs), default=0) + 60.0
    t0 = time.perf_counter()
    try:
        while finished < len(jobs):
            now = time.perf_counter() - t0
            if now > deadline:
                raise RuntimeError(f"{len(jobs) - finished} jobs unanswered "
                                   "60 s after the last due time")
            while nxt < len(order) and jobs[order[nxt]]["due"] <= now:
                waiting.append(order[nxt])
                nxt += 1
            while waiting and idle:
                i = waiting.pop(0)
                c = idle.pop()
                c.job = i
                records[i]["sent"] = time.perf_counter() - t0
                c.send((lines[i] + "\n" + '{"op":"result","id":"%s"}\n'
                        % jobs[i]["id"]).encode())
            timeout = 0.05
            if nxt < len(order) and not waiting:
                timeout = max(0.0, min(timeout,
                                       jobs[order[nxt]]["due"] - now))
            for key, _ in sel.select(timeout):
                c = key.data
                for raw in c.lines():
                    # Two lines answer each job: the submit's ack (or
                    # error) and the result op's result (or error). The
                    # first error wins, so a refused submit stays refused.
                    t = time.perf_counter() - t0
                    rec = records[c.job]
                    rec["lines"] += 1
                    if rec["lines"] == 1:
                        rec["ack"] = t
                        if not raw.startswith(b'{"event":"ack"'):
                            rec["line"] = raw.decode()
                        continue
                    rec["done"] = t
                    if rec["line"] is None:
                        rec["line"] = raw.decode()
                    if rec["traced"]:
                        root = tracer.add("request", rec["due"], t, -1, c.job)
                        tracer.add("loadgen.send_wait", rec["due"],
                                   rec["sent"], root, c.job)
                        tracer.add("service.ack", rec["sent"], rec["ack"],
                                   root, c.job)
                        tracer.add("fleet.result", rec["ack"], t, root, c.job)
                    finished += 1
                    c.job = None
                    idle.append(c)
    finally:
        for c in pool:
            sel.unregister(c.sock)
            c.close()
        sel.close()
    return records
