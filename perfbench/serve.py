"""The serve workloads: ``online`` and ``bulk`` against ``pml-mpi serve``.

Both drive one real daemon subprocess in its shipped configuration
(1000 ms default deadline, quantized keys, 4096-entry memo,
``max_inflight`` 4) over its Unix socket through
:class:`repro.serve.client.DaemonClient`, from one closed-loop client:
the next request is sent only after the previous reply.  A query's
latency is the round trip of the request that carried it, rescaled to
the reference host speed (:mod:`hostspeed`) unless the reply was
deadline-floored: a floored reply waits on the daemon's timer, not the
CPU, so it counts raw.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import fixture
import hostspeed
import stats
import tracing

BOOTS = 5
#: online: Zipf-popular keys and the share of first-seen keys.
POPULAR_KEYS = 256
ZIPF_S = 1.1
NEW_KEY_SHARE = 0.05
#: bulk: batch size, warm batches after each cold one, and the rows of
#: each batch kept for the ladder check.
BULK_BATCH = 10_000
WARM_PER_CYCLE = 4
KEEP_ROWS = 64
#: Answered decisions per run compared with the scalar guard ladder.
CHECK_SAMPLE = 120
#: Calibration kernel calls on each side of a timed operation: one
#: around a sub-millisecond online request, more around the longer
#: bulk batches and daemon boots.
CALIBRATION = {"online": 1, "bulk": 12, "boot": 24}

Key = tuple[str, int, int, int]


class Daemon:
    """One ``pml-mpi serve`` subprocess, optionally traced."""

    def __init__(self, root: Path, run_dir: Path, bundle: Path,
                 spans_out: Path | None = None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.bundle = bundle
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.ready = run_dir / "ready.json"
        # Relative to the checkout (the cwd of both processes): Unix
        # socket paths are limited to 107 bytes.
        self.socket = os.path.relpath(run_dir / "daemon.sock", root)

    def boot(self) -> float:
        """Spawn the daemon; seconds from spawn to its ready file."""
        if self.spans_out is None:
            head = [sys.executable, "-m", "repro.cli"]
        else:
            head = [sys.executable, str(Path(__file__).parent /
                                        "launcher.py"), str(self.spans_out)]
        cmd = head + ["serve", fixture.SERVE_CLUSTER,
                      "--bundle", str(self.bundle),
                      "--state-dir", str(self.run_dir / "state"),
                      "--socket", self.socket,
                      "--ready-file", str(self.ready)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.ready.unlink(missing_ok=True)
        with open(self.run_dir / "daemon.log", "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                         stdout=log, stderr=log)
        while not self.ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"ready; see {self.run_dir / 'daemon.log'}")
            if time.perf_counter() - t0 > 120:
                raise RuntimeError("daemon not ready after 120 s")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def client(self) -> Any:
        from repro.serve.client import DaemonClient

        return DaemonClient(self.socket, timeout_s=60.0)

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the daemon (``VmHWM``), MiB."""
        assert self.proc is not None
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Graceful drain through the ``shutdown`` op; kill on timeout."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc = None


def vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _query(key: Key) -> dict[str, Any]:
    c, n, p, m = key
    return {"collective": c, "nodes": n, "ppn": p, "msg_size": m}


# -- inputs -------------------------------------------------------------

class OnlineStream:
    """Seeded request stream: Zipf-popular keys plus first-seen keys.

    Popular keys are exact sizes in grid cells; each first-seen key
    lands in a quantization cell no earlier request touched, so it
    misses the daemon's memo.
    """

    def __init__(self, spec: Any, seed: int) -> None:
        rng = random.Random(seed)
        grid = fixture.serve_grid(spec)
        rng.shuffle(grid)
        self.fresh = grid[POPULAR_KEYS:]
        self.popular = [(c, n, p, fixture.exact_size(rng, m))
                        for c, n, p, m in grid[:POPULAR_KEYS]]
        weights = [1.0 / (i + 1) ** ZIPF_S for i in range(POPULAR_KEYS)]
        total, acc = sum(weights), 0.0
        self.cum = []
        for w in weights:
            acc += w / total
            self.cum.append(acc)
        self.rng = rng

    def next(self) -> tuple[Key, bool]:
        """The next key and whether it is first-seen."""
        if self.fresh and self.rng.random() < NEW_KEY_SHARE:
            c, n, p, m = self.fresh.pop()
            return (c, n, p, fixture.exact_size(self.rng, m)), True
        i = bisect.bisect_right(self.cum, self.rng.random())
        return self.popular[min(i, POPULAR_KEYS - 1)], False


def bulk_batch(spec: Any, rng: random.Random) -> list[Key]:
    """10k queries spread over the served cluster's feasible grid, at
    exact sizes."""
    grid = fixture.serve_grid(spec)
    return [(c, n, p, fixture.exact_size(rng, m))
            for c, n, p, m in (rng.choice(grid)
                               for _ in range(BULK_BATCH))]


# -- correctness --------------------------------------------------------

class Ladder:
    """The ROADMAP oracle: the scalar ``GuardedSelector.explain`` ladder
    on the same bundle, in this process, with a fresh (closed-breaker)
    guard per query, at the daemon's quantized size."""

    def __init__(self, selector: Any, spec: Any) -> None:
        from repro.serve.service import quantize_msg_size
        from repro.smpi.heuristics import MvapichDefaultSelector

        self.selector = selector
        self.spec = spec
        self.quantize = quantize_msg_size
        self.floor = MvapichDefaultSelector()

    def expected(self, key: Key, action: str, floored: bool) -> str:
        from repro.simcluster.machine import Machine
        from repro.smpi.guard import GuardedSelector

        c, n, p, m = key
        inner = self.floor if floored or action == "breaker" \
            else self.selector
        # A floored reply or an open breaker is answered by the MVAPICH
        # heuristic under the same feasibility enforcement.
        return GuardedSelector(inner).explain(
            c, Machine(self.spec, n, p), self.quantize(m)).algorithm

    def check(self, answered: list[tuple[Key, dict, bool]],
              rng: random.Random, problems: list[str]) -> int:
        """Compare a seeded sample of ``(key, decision, floored)``;
        returns the number compared."""
        sample = answered if len(answered) <= CHECK_SAMPLE \
            else rng.sample(answered, CHECK_SAMPLE)
        for key, d, floored in sample:
            want = self.expected(key, d["action"], floored)
            if d["algorithm"] != want:
                problems.append(
                    f"decision for {key} is {d['algorithm']!r} "
                    f"({d['action']}), ladder says {want!r}")
        return len(sample)


def check_partitions(counters: dict[str, int], problems: list[str]
                     ) -> None:
    """The daemon's request partition and the service's query
    partition, from its public ``stats``."""
    from repro.serve.daemon import DAEMON_COUNTER_KEYS

    total = counters.get("serve.daemon.requests", 0)
    parts = sum(counters.get(f"serve.daemon.{k}", 0)
                for k in DAEMON_COUNTER_KEYS[1:])
    if total != parts:
        problems.append(f"daemon request partition broken: requests "
                        f"{total} != terminals {parts}")
    if counters.get("serve.daemon.internal", 0):
        problems.append("daemon answered with internal errors")
    q = counters.get("serve.queries", 0)
    split = sum(counters.get(f"serve.{k}", 0)
                for k in ("cache_hits", "deduped", "cache_misses"))
    if q != split:
        problems.append(f"serve query partition broken: {q} != {split}")


def is_model(d: dict, floored: bool) -> bool:
    """Answered by the model path (as predicted, or remapped by the
    guard); deadline floors and heuristic fallbacks are misses."""
    return not floored and d["action"] in ("model", "remap")


def _select(client: Any, queries: list[dict]
            ) -> tuple[float, float, dict | None]:
    """One select round trip: ``(start, seconds, response or None)``."""
    from repro.serve.client import DaemonError

    t0 = time.perf_counter()
    try:
        response = client.select(queries)
    except (DaemonError, OSError, ValueError):
        response = None
    return t0, time.perf_counter() - t0, response


# -- timed phases -------------------------------------------------------

class Samples:
    """What one timed phase observed."""

    def __init__(self) -> None:
        #: (raw latency s, reference-speed latency s, queries, cold,
        #: first query's collective) per select request
        self.requests: list[tuple[float, float, int, bool, str]] = []
        #: request windows (start, end) that layer closure accounts for
        self.windows: list[tuple[float, float]] = []
        #: bulk: cold batch windows, through their abandoned model work
        self.cold_windows: list[tuple[float, float]] = []
        self.answered: list[tuple[Key, dict, bool]] = []
        self.sent = self.failed = self.ok = 0
        self.extra: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.extra.setdefault(name, []).append(value)

    def record(self, keys: list[Key], dt: float, factor: float,
               r: dict | None, keep: list[int], cold: bool) -> bool:
        """Account one select taking *dt* raw seconds at host-speed
        *factor*; returns whether it was floored."""
        floored = r is not None and "degraded" in r
        ref = dt if floored else dt * factor
        self.requests.append((dt, ref, len(keys), cold, keys[0][0]))
        self.sent += len(keys)
        if r is None:
            self.failed += len(keys)
            return False
        decisions = r["decisions"]
        self.ok += sum(is_model(d, floored) for d in decisions)
        for i in keep:
            self.answered.append((keys[i], decisions[i], floored))
        return floored


class Online:
    """Warm up on every popular key (untimed), then 1-query selects."""

    def __init__(self, spec: Any, seed: int) -> None:
        self.stream = OnlineStream(spec, seed)
        self.samples = Samples()

    def warmup(self, client: Any) -> None:
        for key in self.stream.popular:
            client.select([_query(key)])

    def run(self, client: Any, seconds: float) -> None:
        s = self.samples
        speed = hostspeed.Bracket(CALIBRATION["online"])
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            key, fresh = self.stream.next()
            t0, dt, r = _select(client, [_query(key)])
            s.record([key], dt, speed.factor(), r, [0], cold=fresh)
            s.windows.append((t0, t0 + dt))


def _wait_abandoned(client: Any, replied: float) -> float:
    """Poll ``tail`` until the abandoned model block of the last
    floored select reports completion; its lag after the floored reply
    (seconds, on the shared monotonic clock)."""
    def is_floor(e: dict) -> bool:
        return e["kind"] == "request" and e.get("op") == "select" \
            and e.get("status") == "deadline_floor"

    events = client.tail(64)["events"]
    floor_tick = max(e["tick"] for e in events if is_floor(e))
    give_up = time.monotonic() + 60.0
    while True:
        for e in events:
            if e["kind"] == "request" and e.get("op") == "select_block" \
                    and e.get("queries") == BULK_BATCH \
                    and e["tick"] > floor_tick:
                return e["t"] - replied
        if time.monotonic() > give_up:
            raise RuntimeError("abandoned block never completed")
        time.sleep(0.01)
        events = client.tail(64)["events"]


class Bulk:
    """Cycles of reload, a cold 10k batch and warm 10k batches."""

    def __init__(self, spec: Any, seed: int) -> None:
        self.rng = random.Random(seed)
        self.keys = bulk_batch(spec, self.rng)
        self.keep = sorted(self.rng.sample(range(BULK_BATCH), KEEP_ROWS))
        self.samples = Samples()

    def warmup(self, client: Any) -> None:
        pass

    def run(self, client: Any, seconds: float) -> None:
        """Whole cycles until *seconds* have passed (at least one)."""
        s, keys, keep = self.samples, self.keys, self.keep
        speed = hostspeed.Bracket(CALIBRATION["bulk"])
        end = time.perf_counter() + seconds
        while True:
            client.reload()
            speed.restart()
            t0, dt, r = _select(client, [_query(k) for k in keys])
            replied = time.monotonic()
            factor = speed.factor()
            lag = 0.0
            if s.record(keys, dt, factor, r, keep, cold=True):
                lag = _wait_abandoned(client, replied)
                s.add("abandoned", lag)
            s.cold_windows.append((t0, t0 + dt + lag))
            speed.restart()
            for _ in range(WARM_PER_CYCLE):
                order = list(range(BULK_BATCH))
                self.rng.shuffle(order)
                batch = [keys[i] for i in order]
                t0, dt, r = _select(client, [_query(k) for k in batch])
                s.record(batch, dt, speed.factor(), r, keep, cold=False)
                # Closure covers warm batches only: a floored cold
                # batch is a deadline wait, its model work runs on.
                s.windows.append((t0, t0 + dt))
            if time.perf_counter() >= end:
                return


LOOPS = {"online": Online, "bulk": Bulk}


def timed(ctx: Any, daemon: Daemon, spec: Any, seconds: float
          ) -> Samples:
    """Run the workload for *seconds*."""
    loop = LOOPS[ctx.workload](spec, ctx.seed)
    with daemon.client() as client:
        loop.warmup(client)
        loop.run(client, seconds)
        for _ in range(50):
            t0 = time.perf_counter()
            client.ping()
            loop.samples.add("ping", time.perf_counter() - t0)
    return loop.samples


def latency_metrics(s: Samples, raw: bool = False) -> dict[str, float]:
    """The end-to-end latency metrics of one timed phase, at reference
    host speed (or *raw* wall clock)."""
    col = 0 if raw else 1
    pairs = [(r[col], r[2]) for r in s.requests]
    # A 1-query cold request costs what its collective's model costs:
    # report the mean of the per-collective medians, so the run's
    # collective mix does not move it.
    by_collective: dict[str, list[float]] = {}
    for r in s.requests:
        if r[3]:
            by_collective.setdefault(r[4], []).append(r[col])
    cold_medians = [statistics.median(v) for v in by_collective.values()]
    warm = [(r[col], r[2]) for r in s.requests if not r[3]]
    return {
        "p50_ms": 1e3 * stats.weighted_percentile(pairs, 50),
        "tail_ms": 1e3 * stats.weighted_percentile(pairs, 99),
        "cold_ms": 1e3 * statistics.fmean(cold_medians),
        "queries_per_s": sum(n for _, n in warm) / sum(t for t, _ in warm),
        "ok_frac": s.ok / s.sent,
    }


# -- one run ------------------------------------------------------------

def in_process(ctx: Any, spec: Any, problems: list[str]) -> Any:
    """Untimed, with no daemon alive: load the bundle for the ladder
    check and re-collect the regret oracle's records, which must equal
    the fixture's (a simulator change that alters data fails the run).
    Traced runs also build Frontera's compile-time table and run one
    ``offline_train`` on the fixture's records of the paper's offline
    campaign (Ray, Hartree, Haswell), so the tune and training layers
    are measured (no benchmarked workload trains).  Returns the loaded
    selector."""
    from repro.core import bundle, dataset, framework, inference
    from repro.core.dataset import TuningDataset
    from repro.smpi.tuning import clear_measurement_cache

    with ctx.phase("load"):
        selector = bundle.load_selector(ctx.bundle)
    oracle = ctx.meta["oracle"]
    clear_measurement_cache()
    with ctx.phase("collect"):
        got = [dataset.benchmark_config(
            spec, o["collective"], o["nodes"], o["ppn"],
            o["msg_size"]).times for o in oracle]
    if got != [o["times"] for o in oracle]:
        problems.append("re-collected oracle records differ from the "
                        "fixture's (simulator output changed)")
    if ctx.trace:
        with ctx.phase("tune"):
            inference.generate_tuning_table(selector, spec)
        records = TuningDataset.load(
            ctx.fixture_dir / "dataset.jsonl.gz").filter(
            clusters=set(fixture.TRAIN_CLUSTERS))
        with ctx.phase("train"):
            framework.offline_train(records)
    return selector


def regret_probe(ctx: Any, client: Any
                 ) -> tuple[float, list[tuple[Key, dict, bool]]]:
    """Serve each oracle key, one per request (untimed), and score the
    answer at its exact size: mean of T(chosen)/T(best) - 1, in %."""
    regrets, probe = [], []
    for o in ctx.meta["oracle"]:
        key = (o["collective"], o["nodes"], o["ppn"], o["msg_size"])
        r = client.select([_query(key)])
        d = r["decisions"][0]
        probe.append((key, d, "degraded" in r))
        times = o["times"]
        regrets.append(times[d["algorithm"]] / min(times.values()) - 1.0)
    return 100.0 * statistics.fmean(regrets), probe


def run(ctx: Any) -> dict[str, Any]:
    """One ``online`` or ``bulk`` run (traced when ``ctx.trace``)."""
    from repro.hwmodel.registry import get_cluster

    spec = get_cluster(fixture.SERVE_CLUSTER)
    metrics: dict[str, float] = {}
    problems: list[str] = []
    daemon = Daemon(ctx.root, ctx.run_dir, ctx.bundle)
    reference = None
    try:
        boots, raw_boots = [], []
        speed = hostspeed.Bracket(CALIBRATION["boot"])
        for i in range(BOOTS):
            speed.restart()
            raw_boots.append(daemon.boot())
            boots.append(raw_boots[-1] * speed.factor())
            if i < BOOTS - 1:
                daemon.stop()
        metrics["setup_s"] = statistics.median(boots)
        if ctx.trace:
            # Untraced reference for the tracing overhead, then the
            # traced daemon for the per-layer run.
            reference = timed(ctx, daemon, spec, ctx.seconds / 2)
            daemon.stop()
            tracing.install_client(ctx.log)
            daemon = Daemon(ctx.root, ctx.run_dir, ctx.bundle,
                            spans_out=ctx.run_dir / "daemon_spans.json")
            daemon.boot()
        samples = timed(ctx, daemon, spec, ctx.seconds)
        with daemon.client() as client:
            metrics["regret_pct"], probe = regret_probe(ctx, client)
            counters = client.stats()["counters"]
        check_partitions(counters, problems)
        metrics["rss_mb"] = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    metrics.update(latency_metrics(samples))
    raw = latency_metrics(samples, raw=True)
    rng = random.Random(ctx.seed)
    ladder = Ladder(in_process(ctx, spec, problems), spec)
    checked = ladder.check(samples.answered, rng, problems)
    checked += ladder.check(probe, rng, problems)
    return {
        "metrics": metrics, "problems": problems,
        "attempted": samples.sent, "failed": samples.failed,
        "samples": samples, "reference": reference,
        "counters": counters,
        "notes": {
            "select requests": len(samples.requests),
            "cold requests": sum(r[3] for r in samples.requests),
            "queries sent": samples.sent,
            "boots, raw (s)": " ".join(f"{b:.3f}" for b in raw_boots),
            "boots, reference speed (s)": " ".join(
                f"{b:.3f}" for b in boots),
            "raw wall-clock latency": "  ".join(
                f"{k} {v:.4g}" for k, v in raw.items() if k != "ok_frac"),
            "decisions checked against the ladder": checked,
        },
    }
