#!/usr/bin/env python3
"""End-to-end benchmark of the geopriv_serve mechanism daemon.

    python3 perfbench/run.py --workload cached_release --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The script builds the daemon and
the benchmark's own programs (perfbench/CMakeLists.txt) under .bench_build,
starts geopriv_serve as a separate process on a free loopback port, drives
it with perfbench_load (one process, one thread, at most 4 connections),
checks every reply against exact-rational computations made here
(oracle.py), and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, from a traced run that
repeats the TCP workload with "trace":true and replays the same seeded
requests in-process through the library's public functions
(perfbench_trace).  README.md lists every metric, workload and flag.
"""

import argparse
import atexit
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import oracle  # noqa: E402

WORKLOADS = ("cached_release", "durable_charges", "signature_churn")
BUDGET_FLOOR = "1e-200"      # enforced, and far below any consumer's level
SETUP_REPEATS = 5            # setup_s is the median of this many set-ups
LOAD_TIMEOUT_S = 120

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def sig(mode, n, alpha, loss, lo=None, hi=None):
    a = Fraction(alpha)
    return {"mode": mode, "n": n, "alpha": a, "loss": loss,
            "lo": 0 if lo is None else lo, "hi": n if hi is None else hi}


def prewarm_signatures():
    """The fixed, seed-independent set every workload serves from cache.

    Exact signatures with n in {6, 8} (some with narrowed sides) and
    geometric ones with n up to 128, over all three losses, then the small
    exact ones whose minimax losses have exact LP references
    (reference.json), among them the paper's Table 1 instance n=3,
    alpha=1/4.  The order is the order of the set-up burst: the costly
    solves come first, so its p50 and p90 are dominated by solver work
    rather than by per-request hand-offs.
    """
    s = []
    for alpha in ("1/2", "3/4"):
        s.append(sig("exact", 8, alpha, "absolute"))
        s.append(sig("exact", 8, alpha, "zero-one"))
    s.append(sig("exact", 8, "1/2", "absolute", 2, 6))
    s.append(sig("exact", 8, "1/2", "squared", 2, 6))
    for alpha in ("1/2", "2/3"):
        for loss in ("absolute", "squared", "zero-one"):
            s.append(sig("exact", 6, alpha, loss))
    s.append(sig("exact", 6, "1/3", "zero-one", 1, 4))
    for n, alpha, loss, lo, hi in ((128, "1/2", "absolute", 0, 128), (128, "1/2", "squared", 40, 80),
                                   (64, "1/2", "zero-one", 0, 64), (64, "1/2", "absolute", 0, 64),
                                   (64, "1/2", "absolute", 16, 48), (32, "1/2", "absolute", 0, 32),
                                   (32, "3/4", "squared", 0, 32), (16, "9/10", "squared", 0, 16),
                                   (16, "3/4", "zero-one", 0, 16)):
        s.append(sig("geometric", n, alpha, loss, lo, hi))
    for loss in ("absolute", "squared", "zero-one"):
        s.append(sig("exact", 3, "1/4", loss))
        s.append(sig("exact", 4, "1/2", loss))
    s.append(sig("exact", 3, "1/2", "absolute"))
    s.append(sig("exact", 4, "1/3", "absolute"))
    return s


def alpha_grid():
    """Fractions in [1/5, 9/10) by increasing denominator, then numerator."""
    out = []
    for den in range(5, 64):
        for num in range(1, den):
            a = Fraction(num, den)
            if a.denominator == den and Fraction(1, 5) <= a < Fraction(9, 10):
                out.append(a)
    return out


def churn_signatures(rng, count, seen):
    """A seeded stream of never-seen signatures in whole rounds.

    Every round has the same make-up: six warm-startable structural classes
    (n, side) x three losses, each at the next alpha of a fixed grid of
    growing denominators (every (class, loss) family walks the grid from
    its own offset), plus one brand-new narrowed-side class, a cold solve.
    The seed orders the signatures within each round and the cold classes,
    so every seed asks for the same work in a different order.  `seen`
    holds signatures already served, which the stream skips.
    """
    classes = [(4, 0, 4), (4, 1, 3), (5, 0, 5), (5, 1, 4), (6, 0, 6), (6, 1, 5)]
    losses = ("absolute", "squared", "zero-one")
    cold_classes = [(n, lo, hi) for n in (5, 6, 7) for lo in range(0, n)
                    for hi in range(lo + 2, n + 1)
                    if (lo, hi) != (0, n) and (n, lo, hi) not in classes]
    rng.shuffle(cold_classes)
    used = {(s["n"], s["lo"], s["hi"], s["loss"], s["alpha"]) for s in seen}
    grid = alpha_grid()
    cursor = {}
    out = []
    rnd = 0
    while len(out) < count:
        batch = []
        for c, (n, lo, hi) in enumerate(classes):
            for k, loss in enumerate(losses):
                at = cursor.get((c, k), 7 * (3 * c + k))
                while (n, lo, hi, loss, grid[at % len(grid)]) in used:
                    at += 1
                a = grid[at % len(grid)]
                used.add((n, lo, hi, loss, a))
                cursor[(c, k)] = at + 1
                batch.append(sig("exact", n, a, loss, lo, hi))
        if rnd < len(cold_classes):
            n, lo, hi = cold_classes[rnd]
            batch.append(sig("exact", n, Fraction(1, 2), "absolute", lo, hi))
        rng.shuffle(batch)
        out.extend(batch)
        rnd += 1
    return out


def query_line(s, consumer, seed, count=None, trace=False):
    line = {"op": "query", "consumer": consumer, "n": s["n"],
            "alpha": "%d/%d" % (s["alpha"].numerator, s["alpha"].denominator),
            "loss": s["loss"], "lo": s["lo"], "hi": s["hi"], "mode": s["mode"],
            "count": s["lo"] if count is None else count, "seed": seed}
    if trace:
        line["trace"] = True
    return json.dumps(line, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Process hygiene: every daemon is stopped and every temp dir removed on
# every exit path; a failed run's daemon stderr is kept.
# ---------------------------------------------------------------------------

_DAEMONS = []
_TEMPDIRS = []
_KEEP_LOGS = {"dir": None, "keep": False}


def _cleanup():
    for d in list(_DAEMONS):
        d.kill()
    for path in _TEMPDIRS:
        if _KEEP_LOGS["keep"] and _KEEP_LOGS["dir"]:
            os.makedirs(_KEEP_LOGS["dir"], exist_ok=True)
            for name in os.listdir(path):
                if name.endswith(".stderr"):
                    shutil.copy(os.path.join(path, name),
                                os.path.join(_KEEP_LOGS["dir"], name))
        shutil.rmtree(path, ignore_errors=True)
    _TEMPDIRS.clear()


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


class BenchError(Exception):
    pass


class Daemon:
    """One geopriv_serve process on a free loopback port."""

    def __init__(self, binary, workdir, tag, flags):
        self.stderr_path = os.path.join(workdir, tag + ".stderr")
        self.stderr = open(self.stderr_path, "ab")
        env = {k: v for k, v in os.environ.items() if not k.startswith("GEOPRIV_")}
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen([binary, "--port", "0"] + flags,
                                     stdout=subprocess.PIPE, stderr=self.stderr,
                                     stdin=subprocess.DEVNULL, env=env)
        _DAEMONS.append(self)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise BenchError("daemon did not announce a port (see %s)" % self.stderr_path)
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.sock = None
        self.connect()

    def connect(self):
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    @property
    def pid(self):
        return self.proc.pid

    def request(self, line, replies=1):
        if self.sock is None:
            self.connect()
        self.sock.sendall(line.encode() + b"\n")
        return [json.loads(self.reader.readline()) for _ in range(replies)]

    def pipeline(self, lines):
        """Sends every line at once, then reads one reply per line."""
        if self.sock is None:
            self.connect()
        self.sock.sendall(("\n".join(lines) + "\n").encode())
        return [json.loads(self.reader.readline()) for _ in lines]

    def close_client(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None

    def shutdown(self):
        """Graceful stop (the daemon persists); returns its exit code."""
        try:
            self.request('{"op":"shutdown"}')
        except (OSError, ValueError):
            pass
        self.close_client()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not stop after shutdown")
        self._forget()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.close_client()
        self._forget()

    def _forget(self):
        if self in _DAEMONS:
            _DAEMONS.remove(self)
        self.proc.stdout.close()
        self.stderr.close()


def proc_cpu_s(pid):
    total = 0
    task = "/proc/%d/task" % pid
    for tid in os.listdir(task):
        try:
            with open("%s/%s/schedstat" % (task, tid)) as f:
                total += int(f.read().split()[0])
        except OSError:
            pass
    return total / 1e9


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(root, "src", "service", "server.h"))):
        raise BenchError("run from the root of a geopriv source checkout "
                         "(CMakeLists.txt and src/ not found)")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "ab") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=False)
        done = subprocess.run(["cmake", "--build", out, "-j3", "--target",
                               "geopriv_serve", "perfbench_load", "perfbench_trace"],
                              stdout=log, stderr=log, check=False)
    if done.returncode != 0:
        with open(log_path, "rb") as f:
            sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
        raise BenchError("build failed (log: %s)" % log_path)
    return {
        "serve": os.path.join(out, "geopriv", "geopriv_serve"),
        "load": os.path.join(out, "perfbench_load"),
        "trace": os.path.join(out, "perfbench_trace"),
        "out": out,
    }


# ---------------------------------------------------------------------------
# Checks against exact-rational computations made here
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
        self.lp_reference = {(r["n"], r["alpha"], r["loss"]): Fraction(r["loss_value"])
                             for r in ref["minimax_lp"]}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.family = {}   # (n, loss, lo, hi) -> {alpha: loss}
        self._g_cache = {}

    def fail(self, why, count=1):
        self.failed += count
        self.failures[why] = self.failures.get(why, 0) + count

    def g_loss(self, s):
        key = (s["n"], s["alpha"], s["loss"], s["lo"], s["hi"])
        if key not in self._g_cache:
            self._g_cache[key] = oracle.geometric_loss(*key)
        return self._g_cache[key]

    def check_loss(self, s, loss_text, replies):
        """Checks one signature's served loss; fails its replies if wrong."""
        try:
            served = Fraction(loss_text)
        except (ValueError, ZeroDivisionError):
            self.fail("loss_unparsable", replies)
            return
        if s["mode"] == "geometric":
            if served != self.g_loss(s):
                self.fail("geometric_loss", replies)
            return
        if served > self.g_loss(s):
            self.fail("exact_above_geometric", replies)
            return
        a = "%d/%d" % (s["alpha"].numerator, s["alpha"].denominator)
        ref = self.lp_reference.get((s["n"], a, s["loss"]))
        if ref is not None and (s["lo"], s["hi"]) == (0, s["n"]) and served != ref:
            self.fail("minimax_lp", replies)
            return
        fam = self.family.setdefault((s["n"], s["loss"], s["lo"], s["hi"]), {})
        fam[s["alpha"]] = (served, replies)

    def check_monotone(self):
        """Exact loss never decreases as alpha grows within a family."""
        for fam in self.family.values():
            prev = None
            for alpha in sorted(fam):
                served, replies = fam[alpha]
                if prev is not None and served < prev:
                    self.fail("not_monotone_in_alpha", replies)
                prev = served if prev is None else max(prev, served)

    def check_histogram(self, s, count, values, replies):
        """Chi-square fit of released values to the closed-form G row."""
        row = oracle.geometric_row(s["n"], s["alpha"], count)
        total = sum(values)
        if total < 200:
            return
        bins, obs, exp = [], 0, 0.0
        for v, p in enumerate(row):
            obs += values[v]
            exp += float(p) * total
            if exp >= 20:
                bins.append((obs, exp))
                obs, exp = 0, 0.0
        if bins and exp > 0:
            o, e = bins.pop()
            bins.append((o + obs, e + exp))
        elif exp > 0:
            bins.append((obs, exp))
        df = len(bins) - 1
        if df < 1:
            return
        chi2 = sum((o - e) ** 2 / e for o, e in bins)
        # Wilson-Hilferty: z of the chi-square statistic; 6 sigma is a
        # false-alarm rate near 1e-9 per histogram.
        z = ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / (2 / (9 * df)) ** 0.5
        if z > 6:
            self.fail("geometric_histogram", replies)

    def check_load(self, result, templates):
        """Every check on a perfbench_load result."""
        for phase in result["phases"]:
            self.attempted += phase["queries_sent"]
            for why, n in phase["failures"].items():
                self.fail(why, n)
            delta = sum(phase["metrics_after"].get("geopriv_query_replies_total_" + k, 0) -
                        phase["metrics_before"].get("geopriv_query_replies_total_" + k, 0)
                        for k in ("ok", "rejected", "shed", "error"))
            if delta != phase["query_replies"]:
                self.fail("metrics_reply_count", max(1, abs(delta - phase["query_replies"])))
            if phase["query_replies"] != phase["queries_sent"]:
                self.fail("missing_reply", phase["queries_sent"] - phase["query_replies"])
        for t in result["templates"]:
            if t["replies"] == 0:
                continue
            if t["loss_mismatch"]:
                self.fail("loss_inconsistent", t["replies"])
            elif t["loss"]:
                self.check_loss(templates[t["id"]], t["loss"], t["replies"])
        for h in result["histograms"]:
            s = templates[h["template"]]
            if s["mode"] == "geometric":
                self.check_histogram(s, h["count"], h["values"], h["replies"])


# ---------------------------------------------------------------------------
# Workload pieces
# ---------------------------------------------------------------------------


def prewarm(daemon, sigs, checker, consumer="prewarm"):
    """Asks for every signature in one burst on one connection.

    The daemon serves a connection's lines in order, so reply i arrives
    once the first i signatures are solved.  Returns each reply's time
    since the burst was sent (ms).
    """
    if daemon.sock is None:
        daemon.connect()
    t0 = time.perf_counter()
    daemon.sock.sendall(("\n".join(query_line(s, consumer, 1000 + i)
                                   for i, s in enumerate(sigs)) + "\n").encode())
    latencies = []
    for s in sigs:
        reply = json.loads(daemon.reader.readline())
        latencies.append((time.perf_counter() - t0) * 1000)
        checker.attempted += 1
        if not reply.get("ok"):
            checker.fail("prewarm_error")
            continue
        if not 0 <= reply["released"] <= s["n"]:
            checker.fail("range")
        checker.check_loss(s, reply["loss"], 1)
    return latencies


class SolveStats:
    """New-signature latencies and the daemon CPU they cost.

    The same burst of signatures is solved by several fresh daemons; each
    signature's latency is its median over those daemons, and the rate and
    CPU are medians over the daemons, so one disturbed set-up moves none.
    """

    def __init__(self):
        self.runs = []      # per daemon: [latency ms per signature]
        self.seconds = []
        self.cpu_s = []

    def add(self, daemon, sigs, checker):
        cpu0 = proc_cpu_s(daemon.pid)
        t0 = time.perf_counter()
        self.runs.append(prewarm(daemon, sigs, checker))
        self.seconds.append(time.perf_counter() - t0)
        self.cpu_s.append(proc_cpu_s(daemon.pid) - cpu0)

    def metrics(self):
        n = len(self.runs[0])
        per_sig = [statistics.median(run[i] for run in self.runs) for i in range(n)]
        return {
            "new_signature_p50_ms": statistics.median(per_sig),
            "new_signature_p90_ms": quantile(per_sig, 0.9),
            "signatures_per_s": n / statistics.median(self.seconds),
            "solve_cpu_ms_per_signature": statistics.median(self.cpu_s) * 1000 / n,
        }


def write_spec(path, conns, templates, consumers, phases):
    with open(path, "w") as f:
        f.write("conns %d\n" % conns)
        for i, s in enumerate(templates):
            f.write("template %d %s %d %d %d %s %d %d %d\n" % (
                i, s["mode"], s["n"], s["alpha"].numerator, s["alpha"].denominator,
                s["loss"], s["lo"], s["hi"], 1 if s.get("churn") else 0))
        for conn, name, level, releases in consumers:
            f.write("consumer %d %s %.17g %d\n" % (conn, name, level, releases))
        for name, seconds, trace, roles in phases:
            f.write("phase %s %.3f %d\n" % (name, seconds, 1 if trace else 0))
            for role in roles:
                f.write("role %s\n" % role)


def run_load(bins, daemon, workdir, spec_path, seed, tag):
    out_path = os.path.join(workdir, tag + ".json")
    done = subprocess.run([bins["load"], "--port", str(daemon.port), "--pid", str(daemon.pid),
                           "--spec", spec_path, "--out", out_path, "--seed", str(seed)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=LOAD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError("perfbench_load failed: " + done.stderr.decode(errors="replace")[-2000:])
    sys.stderr.write(done.stderr.decode(errors="replace"))
    with open(out_path) as f:
        return json.load(f)


def ids(templates, pred):
    return ",".join(str(i) for i, s in enumerate(templates) if pred(s))


def delta(phase, key):
    return phase["metrics_after"].get(key, 0) - phase["metrics_before"].get(key, 0)


def mean_of(phase, name):
    count = delta(phase, name + "_count")
    return delta(phase, name + "_sum") / count if count else 0.0


def event_loop_layer(phase):
    requests = sum(delta(phase, k) for k in phase["metrics_after"]
                   if k.startswith("geopriv_requests_total_"))
    wakeups = delta(phase, "geopriv_eventloop_wait_us_count")
    replies = max(1, phase["query_replies"])
    return {
        "event_loop.io_cpu_us_per_query": phase["daemon"]["io_cpu_s"] * 1e6 / replies,
        "event_loop.executor_queue_wait_us": mean_of(phase, "geopriv_executor_queue_wait_us"),
        "event_loop.wait_us": mean_of(phase, "geopriv_eventloop_wait_us"),
        "event_loop.requests_per_wakeup": requests / wakeups if wakeups else 0.0,
        "event_loop.send_us": mean_of(phase, "geopriv_send_us"),
        "client.cpu_us_per_query": phase["client_cpu_s"] * 1e6 / replies,
    }


def lp_layer(metrics_json):
    def ratio(sum_keys, count_key):
        count = metrics_json.get(count_key, 0)
        return sum(metrics_json.get(k, 0) for k in sum_keys) / count if count else 0.0
    return {
        "lp.pivots_per_cold_solve": ratio(["geopriv_solver_pivots_1_cold_sum",
                                           "geopriv_solver_pivots_2_cold_sum"],
                                          "geopriv_solver_pivots_1_cold_count"),
        "lp.pivots_per_warm_solve": ratio(["geopriv_solver_pivots_1_warm_sum",
                                           "geopriv_solver_pivots_2_warm_sum"],
                                          "geopriv_solver_pivots_1_warm_count"),
        "lp.phase1_pivots_per_warm_solve": ratio(["geopriv_solver_pivots_1_warm_sum"],
                                                 "geopriv_solver_pivots_1_warm_count"),
    }


def trace_stage_layer(phase):
    t = phase["trace_us"]
    n = max(1, t.get("count", 0))
    return {"trace.stage_us." + stage: t.get(stage, 0) / n
            for stage in ("parse", "queue", "solve", "charge", "sample", "persist", "serialize")}


def trimmed_mean(values):
    """Mean without the lowest and the highest value: one window disturbed
    by the host (a stall, a burst of steal) moves it little."""
    values = sorted(values)
    if len(values) > 2:
        values = values[1:-1]
    return sum(values) / len(values)


def window_rate(phase, key="replies"):
    """Completions per second, a trimmed mean over the phase's windows."""
    w = phase["windows"]
    return trimmed_mean(w[key]) / w["seconds"]


def window_cpu_us(phase):
    """Daemon CPU us per reply, a trimmed mean over the phase's windows."""
    w = phase["windows"]
    return trimmed_mean([cpu * 1e6 / n for cpu, n in zip(w["cpu_s"], w["replies"]) if n])


def window_p50(phase, group):
    """p50 latency of `group` (ms), a trimmed mean of the windows' p50s.

    Falls back to the whole phase's p50 when a window holds fewer than 100
    replies of the group.
    """
    per = [v for v in phase["windows"]["p50_ms"].get(group, []) if v >= 0]
    if len(per) < len(phase["windows"]["replies"]) or \
            phase["latency_ms"][group]["count"] < 100 * len(phase["windows"]["replies"]):
        return phase["latency_ms"][group]["p50"]
    return trimmed_mean(per)


def quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def reference_line(label, group):
    return "%s p50=%.4f ms p99=%.4f ms (n=%d)" % (label, group["p50"], group["p99"], group["count"])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, args, bins, workdir):
        self.args = args
        self.bins = bins
        self.workdir = workdir
        self.checker = Checker()
        self.rng = random.Random(args.seed)
        self.layer = {}
        self.notes = []

    def phases(self, roles, trace_mode):
        """Untraced phases, or (traced run) an untraced and a traced copy."""
        half = self.args.seconds / 2.0
        if not trace_mode:
            return [(name, frac * self.args.seconds, False, r) for name, frac, r in roles]
        out = [(name, frac * half, False, r) for name, frac, r in roles]
        out += [(name + "_traced", frac * half, True, r) for name, frac, r in roles]
        return out

    def finish_trace(self, result, main):
        """trace.overhead_pct from the untraced and traced copy of `main`."""
        by_name = {p["name"]: p for p in result["phases"]}
        plain, traced = by_name[main], by_name[main + "_traced"]
        cost = lambda p: p["daemon"]["cpu_s"] / max(1, p["query_replies"])  # noqa: E731
        self.layer["trace.overhead_pct"] = (cost(traced) / cost(plain) - 1.0) * 100.0
        self.layer.update(trace_stage_layer(traced))

    def rtt(self, daemon, s, samples=1000):
        """event_loop.rtt_us: one connection, one cached query outstanding."""
        lat = []
        for i in range(samples):
            t0 = time.perf_counter()
            [reply] = daemon.request(query_line(s, "rtt%d" % (i % 64), 7000000 + i))
            lat.append((time.perf_counter() - t0) * 1e6)
            self.checker.attempted += 1
            if not reply.get("ok"):
                self.checker.fail("rtt_error")
        return statistics.median(lat)

    def replay(self, spec_path, extra):
        """Runs perfbench_trace (in-process layer replay) and merges its metrics."""
        spans = os.path.join(self.bins["out"], "spans-%s-%d.jsonl" % (self.args.workload, self.args.seed))
        done = subprocess.run([self.bins["trace"], "--spec", spec_path, "--spans", spans,
                               "--seed", str(self.args.seed), "--scratch", self.workdir] + extra,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=LOAD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError("perfbench_trace failed: " + done.stderr.decode(errors="replace")[-2000:])
        self.layer.update(json.loads(done.stdout.decode().strip().splitlines()[-1]))

    # -- cached_release ----------------------------------------------------

    def cached_release(self, trace_mode):
        sigs = prewarm_signatures()
        solves = SolveStats()
        setups = []
        daemon = None
        reps = 1 if trace_mode else SETUP_REPEATS
        for rep in range(reps):
            daemon = Daemon(self.bins["serve"], self.workdir, "cached%d" % rep,
                            ["--budget", BUDGET_FLOOR])
            solves.add(daemon, sigs, self.checker)
            setups.append(time.perf_counter() - daemon.t_launch)
            if rep + 1 < reps:
                daemon.shutdown()
        daemon.close_client()
        consumers = [(c % 4, "c%05d" % c, 1.0, 0) for c in range(16384)]
        every = ids(sigs, lambda s: True)
        roles = [
            ("open", 0.5, ["%d open 500 %s 1" % (c, every) for c in range(4)]),
            ("closed", 0.5, ["%d closed 256 %s 1" % (c, every) for c in range(3)] +
             ["3 batch 32 2 %s 1" % every]),
        ]
        spec = os.path.join(self.workdir, "cached.spec")
        write_spec(spec, 4, sigs, consumers, self.phases(roles, trace_mode))
        result = run_load(self.bins, daemon, self.workdir, spec, self.args.seed, "cached")
        self.checker.check_load(result, sigs)
        ph = {p["name"]: p for p in result["phases"]}
        op, cl = ph["open"], ph["closed"]
        if trace_mode:
            self.layer.update(event_loop_layer(cl))
            self.layer["client.send_lateness_p50_us"] = op["lateness_ms"]["p50"] * 1000
            self.layer["client.send_lateness_p99_us"] = op["lateness_ms"]["p99"] * 1000
            self.layer["event_loop.executor_cpu_ms_per_signature"] = 0.0
            self.layer.update(lp_layer(result["phases"][-1]["metrics_after"]))
            self.layer["ledger.persist_bytes_per_charge"] = (
                sum(p["daemon"]["wchar"] for p in result["phases"]) /
                max(1, sum(p["ok"] for p in result["phases"])))
            self.layer["event_loop.rtt_us"] = self.rtt(daemon, sigs[0])
            self.finish_trace(result, "closed")
        daemon.shutdown()
        if trace_mode:
            self.replay(spec, [])
        self.notes.append(reference_line("open-loop", op["latency_ms"]["open"]))
        self.notes.append("open-loop lateness p50=%.4f ms p99=%.4f ms" % (
            op["lateness_ms"]["p50"], op["lateness_ms"]["p99"]))
        return {
            "setup_s": statistics.median(setups),
            "open_p50_ms": window_p50(op, "open"),
            "saturated_qps": window_rate(cl),
            "server_cpu_us_per_query": window_cpu_us(cl),
            "server_peak_rss_mb": result["phases"][-1]["daemon"]["hwm_kb"] / 1024.0,
            "charged_qps": window_rate(cl, "ok"),
            "charge_p50_ms": window_p50(cl, "charged"),
            "hit_p50_ms": window_p50(cl, "closed"),
            **solves.metrics(),
        }

    # -- durable_charges ---------------------------------------------------

    def durable_charges(self, trace_mode):
        sigs = prewarm_signatures()
        store = os.path.join(self.workdir, "store")
        solves = SolveStats()
        # The store of cached signatures, solved by daemons of its own (the
        # last one's store is kept; the others time the same solves).
        for rep in range(1 if trace_mode else SETUP_REPEATS):
            shutil.rmtree(store, ignore_errors=True)
            prep = Daemon(self.bins["serve"], self.workdir, "prep%d" % rep, ["--persist", store])
            solves.add(prep, sigs, self.checker)
            prep.shutdown()
        # Thousands of accounts, written in the daemon's own ledger format.
        accounts = []
        with open(os.path.join(store, "ledger.jsonl"), "w") as f:
            f.write('{"ledger":"geopriv-ledger v1"}\n')
            for i in range(3000):
                releases = self.rng.randrange(0, 40)
                level = 1.0
                for _ in range(releases):
                    level *= 0.5
                accounts.append(("a%05d" % i, level, releases))
                f.write('{"consumer":"a%05d","level":%.17g,"releases":%d,'
                        '"chained_level":1,"chained_releases":0}\n' % (i, level, releases))
        flags = ["--persist", store, "--budget", BUDGET_FLOOR]
        setups = []
        daemon = None
        reps = 1 if trace_mode else SETUP_REPEATS
        for rep in range(reps):
            daemon = Daemon(self.bins["serve"], self.workdir, "durable%d" % rep, flags)
            budget, stats = daemon.pipeline(['{"op":"budget","consumer":"%s"}' % accounts[-1][0],
                                             '{"op":"stats"}'])
            setups.append(time.perf_counter() - daemon.t_launch)
            self.checker.attempted += 1
            if budget.get("releases") != accounts[-1][2] or stats.get("entries") != len(sigs):
                self.checker.fail("reload")
            if rep + 1 < reps:
                daemon.shutdown()
        daemon.close_client()
        consumers = [(i % 4, name, level, rel) for i, (name, level, rel) in enumerate(accounts)]
        every = ids(sigs, lambda s: True)
        roles = [("charges", 1.0, [
            "0 closed 1 %s 1,1,4,16" % every,
            "1 closed 1 %s 1,1,4,16" % every,
            "2 batch 8 1 %s 1,4" % every,
            "3 open 20 %s 1" % every,
        ])]
        spec = os.path.join(self.workdir, "durable.spec")
        write_spec(spec, 4, sigs, consumers, self.phases(roles, trace_mode))
        result = run_load(self.bins, daemon, self.workdir, spec, self.args.seed, "durable")
        self.checker.check_load(result, sigs)
        ph = result["phases"][0]
        if trace_mode:
            self.layer.update(event_loop_layer(ph))
            self.layer["client.send_lateness_p50_us"] = ph["lateness_ms"]["p50"] * 1000
            self.layer["client.send_lateness_p99_us"] = ph["lateness_ms"]["p99"] * 1000
            self.layer["event_loop.executor_cpu_ms_per_signature"] = 0.0
            self.layer.update(lp_layer(result["phases"][-1]["metrics_after"]))
            # Every charge rewrites the ledger, so fewer round trips here.
            self.layer["event_loop.rtt_us"] = self.rtt(daemon, sigs[0], samples=100)
            self.finish_trace(result, "charges")
        daemon.shutdown()
        # Restart: no account may show fewer releases than were acknowledged.
        acked = {name: n for name, n in result["consumers"]}
        restarted = Daemon(self.bins["serve"], self.workdir, "restart", flags)
        replies = restarted.pipeline(['{"op":"budget","consumer":"%s"}' % a[0] for a in accounts])
        restarted.shutdown()
        for (name, _level, rel), reply in zip(accounts, replies):
            self.checker.attempted += 1
            if reply.get("consumer") != name or reply.get("releases", -1) < rel + acked.get(name, 0):
                self.checker.fail("restart_lost_releases")
        if trace_mode:
            self.replay(spec, ["--store", store])
        wchar = ph["daemon"]["wchar"]
        charged = max(1, ph["ok"])
        self.layer.setdefault("ledger.persist_bytes_per_charge", wchar / charged)
        self.notes.append("persist_bytes_per_charge=%.1f B over %d charges at %d accounts" % (
            wchar / charged, ph["ok"], len(accounts)))
        self.notes.append(reference_line("charge", ph["latency_ms"]["charged"]))
        self.notes.append(reference_line("open-loop", ph["latency_ms"]["open"]))
        return {
            "setup_s": statistics.median(setups),
            "open_p50_ms": window_p50(ph, "open"),
            "saturated_qps": window_rate(ph),
            "server_cpu_us_per_query": window_cpu_us(ph),
            "server_peak_rss_mb": ph["daemon"]["hwm_kb"] / 1024.0,
            "charged_qps": window_rate(ph, "ok"),
            # The multi-draw charges of connections 0-1.  All charged
            # replies together would mix these (~15 ms) with the batch
            # windows (~57 ms) at nearly even shares, putting the median
            # in the valley between the two.
            "charge_p50_ms": window_p50(ph, "closed_multi"),
            "hit_p50_ms": window_p50(ph, "closed"),
            **solves.metrics(),
        }

    # -- signature_churn ---------------------------------------------------

    def signature_churn(self, trace_mode):
        hits = [s for s in prewarm_signatures()
                if s["mode"] == "geometric" or s["n"] <= 4]
        churn = churn_signatures(self.rng, 150 * int(self.args.seconds + 1), hits)
        for s in churn:
            s["churn"] = True
        templates = hits + churn
        setups = []
        daemon = None
        reps = 1 if trace_mode else SETUP_REPEATS
        for rep in range(reps):
            daemon = Daemon(self.bins["serve"], self.workdir, "churn%d" % rep,
                            ["--budget", BUDGET_FLOOR])
            prewarm(daemon, hits, self.checker)
            setups.append(time.perf_counter() - daemon.t_launch)
            if rep + 1 < reps:
                daemon.shutdown()
        daemon.close_client()
        consumers = [(c % 4, "s%04d" % c, 1.0, 0) for c in range(2048)]
        roles = [("churn", 1.0, ["0 churn 1", "1 churn 1", "2 churn 1",
                                 "3 open 500 %s 1" % ids(hits, lambda s: True)])]
        spec = os.path.join(self.workdir, "churn.spec")
        write_spec(spec, 4, templates, consumers, self.phases(roles, trace_mode))
        result = run_load(self.bins, daemon, self.workdir, spec, self.args.seed, "churn")
        self.checker.check_load(result, templates)
        ph = result["phases"][0]
        served = ph["latency_ms"]["churn"]["count"]  # new signatures served in this phase
        if served < 100:
            raise BenchError("only %d new signatures were served; need at least 100" % served)
        if trace_mode:
            self.layer.update(event_loop_layer(ph))
            self.layer["client.send_lateness_p50_us"] = ph["lateness_ms"]["p50"] * 1000
            self.layer["client.send_lateness_p99_us"] = ph["lateness_ms"]["p99"] * 1000
            self.layer["event_loop.executor_cpu_ms_per_signature"] = (
                (ph["daemon"]["cpu_s"] - ph["daemon"]["io_cpu_s"]) * 1000 / served)
            self.layer.update(lp_layer(result["phases"][-1]["metrics_after"]))
            self.layer["ledger.persist_bytes_per_charge"] = ph["daemon"]["wchar"] / max(1, ph["ok"])
            self.layer["event_loop.rtt_us"] = self.rtt(daemon, hits[0])
            self.finish_trace(result, "churn")
        daemon.shutdown()
        if trace_mode:
            self.replay(spec, [])
        churn_lat = ph["latency_ms"]["churn"]
        self.notes.append(reference_line("new-signature", churn_lat))
        self.notes.append(reference_line("hit", ph["latency_ms"]["open"]))
        return {
            "setup_s": statistics.median(setups),
            "open_p50_ms": window_p50(ph, "open"),
            "saturated_qps": window_rate(ph),
            # Whole-phase totals: a window's CPU depends on which solves
            # happen to land in it.
            "server_cpu_us_per_query": ph["daemon"]["cpu_s"] * 1e6 / max(1, ph["query_replies"]),
            "server_peak_rss_mb": ph["daemon"]["hwm_kb"] / 1024.0,
            "charged_qps": window_rate(ph, "ok"),
            "charge_p50_ms": churn_lat["p50"],
            "hit_p50_ms": window_p50(ph, "open"),
            "new_signature_p50_ms": churn_lat["p50"],
            "new_signature_p90_ms": churn_lat["p90"],
            "signatures_per_s": served / ph["seconds"],
            "solve_cpu_ms_per_signature": ph["daemon"]["cpu_s"] * 1000 / served,
        }


def load_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    atexit.register(_cleanup)
    try:
        bins = build(root)
        base = os.path.join(bins["out"], "runs")
        os.makedirs(base, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=base)
        _TEMPDIRS.append(workdir)
        _KEEP_LOGS["dir"] = os.path.join(bins["out"], "failed", os.path.basename(workdir))
        run = Run(args, bins, workdir)
        values = getattr(run, args.workload)(args.trace == 1)
        run.checker.check_monotone()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        _KEEP_LOGS["keep"] = True
        sys.stderr.write("perfbench: %s: %s\n" % (type(e).__name__, e))
        return 1
    checker = run.checker
    if checker.failed:
        _KEEP_LOGS["keep"] = True
        sys.stderr.write("perfbench: failed checks: %s\n" % json.dumps(checker.failures))
    bench = load_benchmark_json()
    if args.trace:
        wanted, source = bench["per_layer"], run.layer
    else:
        wanted, source = bench["end_to_end"], values
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            sys.stderr.write("perfbench: metric %s was not measured\n" % m["name"])
            return 1
        metrics[m["name"]] = {"value": float(source[m["name"]]), "unit": m["unit"]}
    for note in run.notes:
        print("# " + note)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
