"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload online|bulk \\
        --seed N --seconds S --trace 0|1

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for what each workload and metric means.
Exits non-zero, printing no result, when the program's source tree is
missing or any run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("online", "bulk")
#: Fixture and per-run scratch, under the checkout (ignored by git).
BUILD_DIR = ".bench_build"


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    BENCHMARK.json order."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


class Context:
    """What one run knows: paths, arguments, phase windows, spans."""

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        import fixture

        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.build_dir = root / BUILD_DIR
        self.fixture_dir = fixture.ensure(root, self.build_dir)
        self.meta = fixture.load_meta(self.fixture_dir)
        self.bundle = self.fixture_dir / "bundle.json"
        self.run_dir = self.build_dir / "runs" / str(os.getpid())
        #: name -> [(start, end)] on the perf_counter clock
        self.phases: dict[str, list[tuple[float, float]]] = {}
        self.log: Any = None
        if self.trace:
            import tracing

            self.log = tracing.SpanLog()
            tracing.install(self.log)

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record the window of one in-process stage (for the traced
        run's layer attribution)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases.setdefault(name, []).append(
                (t0, time.perf_counter()))


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report(result: dict[str, Any], metrics: dict[str, float],
           units: dict[str, str], ctx: Context) -> None:
    print(f"workload {ctx.workload}  seed {ctx.seed}  "
          f"seconds {ctx.seconds:g}  trace {int(ctx.trace)}")
    print(f"fixture {ctx.fixture_dir.name}: {ctx.meta['records']} "
          f"records, bundle sha256 {ctx.meta['bundle_sha256']}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source tree (src/repro) under "
              f"{root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    ctx = Context(root, args)
    # Every timed process shares one CPU (children inherit the mask):
    # on a small VM, wakeups across vCPUs add host-dependent latency
    # that no program change controls.  The fixture build above keeps
    # all CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    ctx.run_dir.mkdir(parents=True)
    try:
        import serve

        result = serve.run(ctx)
        if ctx.trace:
            import layers

            units = metric_units(root, "per_layer")
            metrics = layers.per_layer(ctx, result, units)
        else:
            units = metric_units(root, "end_to_end")
            metrics = {k: result["metrics"][k] for k in units}
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    report(result, metrics, units, ctx)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
