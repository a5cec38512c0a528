"""The paper-scale fixture: dataset, bundle and regret oracle.

Every serve workload serves a bundle trained on the full Table I
campaign (all 18 clusters, ~20.6k records, 100-tree random forests).
Building it takes minutes, so it is an *input* of the benchmark, not
part of any timed run.  It is built once per program source tree and
kept under the checkout's build directory (``.bench_build``, ignored
by git), keyed by a digest of ``src/repro`` and of this file.  The run
seed never changes the fixture, so two runs of the same code serve
byte-identical bundles; every run prints the bundle digest.

Beside the bundle the build records, once, the **regret oracle** of
the serve workloads: a fixed sample of Frontera keys at exact,
non-power-of-two message sizes, each with every algorithm's measured
time from :func:`repro.core.dataset.benchmark_config`.  Every run
re-collects these records and requires them unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Any

FIXTURE_SEED = 0
#: The served cluster (the paper's Fig. 9 cluster; its ppn 28/56 make
#: the model predict power-of-two-only algorithms, so the guard's remap
#: rung is live).
SERVE_CLUSTER = "Frontera"
#: Clusters whose fixture records the traced run trains on (the
#: paper's offline campaign), to measure the training layers.
TRAIN_CLUSTERS = ("Ray", "Hartree", "Haswell")
#: Keys in the serve regret oracle.
ORACLE_KEYS = 48
#: Worker processes of the build (both steps are bit-identical to a
#: serial run; only the bundle's recorded ``n_jobs`` differs).
BUILD_WORKERS = 2


def source_digest(root: Path) -> str:
    """sha256 over this file and every ``.py`` file of the program."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    base = root / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        h.update(str(path.relative_to(base)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def records_digest(records: list) -> str:
    """Order-free digest of dataset records (exact float reprs)."""
    lines = sorted(json.dumps(
        [r.cluster, r.collective, r.nodes, r.ppn, r.msg_size,
         sorted(r.times.items())]) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def exact_size(rng: random.Random, grid_msg: int) -> int:
    """A non-power-of-two size in *grid_msg*'s quantization cell
    (``[m/sqrt2, m*sqrt2)``), so the daemon's quantized key is
    *grid_msg* while the oracle prices the exact size."""
    lo, hi = int(grid_msg * 0.72) + 1, int(grid_msg * 1.41)
    while True:
        m = rng.randint(lo, hi)
        if m & (m - 1):
            return m


def serve_grid(spec: Any) -> list[tuple[str, int, int, int]]:
    """The served cluster's feasible (collective, nodes, ppn, grid msg)
    keys, minus the 1-3 B sizes that have no non-power-of-two
    neighbour in their cell."""
    from repro.core.dataset import feasible_configs
    from repro.smpi.collectives.base import COLLECTIVES

    return [(c, n, p, m) for c in COLLECTIVES
            for n, p, m in feasible_configs(spec, c) if m >= 4]


def oracle_keys(spec: Any) -> list[tuple[str, int, int, int]]:
    rng = random.Random(FIXTURE_SEED)
    grid = serve_grid(spec)
    picks = rng.sample(grid, ORACLE_KEYS)
    return [(c, n, p, exact_size(rng, m)) for c, n, p, m in picks]


def _build(root: Path, out: Path, log: Any) -> dict[str, Any]:
    from repro.core import offline_train, save_selector
    from repro.core.dataset import benchmark_config, collect_dataset
    from repro.hwmodel.registry import all_clusters, get_cluster

    meta: dict[str, Any] = {"source": source_digest(root)}
    t0 = time.perf_counter()
    dataset = collect_dataset(all_clusters(), use_cache=False,
                              workers=BUILD_WORKERS)
    meta["collect_s"] = time.perf_counter() - t0
    log(f"fixture: collected {len(dataset)} records "
        f"in {meta['collect_s']:.0f} s")
    dataset.save(out / "dataset.jsonl.gz")

    t0 = time.perf_counter()
    selector = offline_train(dataset, n_jobs=BUILD_WORKERS)
    meta["train_s"] = time.perf_counter() - t0
    save_selector(selector, out / "bundle.json")
    log(f"fixture: trained bundle in {meta['train_s']:.0f} s")

    t0 = time.perf_counter()
    spec = get_cluster(SERVE_CLUSTER)
    meta["oracle"] = [
        {"collective": c, "nodes": n, "ppn": p, "msg_size": m,
         "times": benchmark_config(spec, c, n, p, m).times}
        for c, n, p, m in oracle_keys(spec)]
    meta["oracle_s"] = time.perf_counter() - t0

    meta["records"] = len(dataset)
    meta["dataset_sha256"] = records_digest(dataset.records)
    meta["bundle_sha256"] = file_digest(out / "bundle.json")
    return meta


def ensure(root: Path, build_dir: Path) -> Path:
    """The fixture directory for this source tree, built if missing."""
    digest = source_digest(root)
    final = build_dir / "fixture" / digest[:20]
    if (final / "meta.json").exists():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    log(f"fixture: building paper-scale fixture in {final} "
        f"(minutes; once per source tree)")
    try:
        meta = _build(root, tmp, log)
        (tmp / "meta.json").write_text(json.dumps(meta))
        if final.exists():
            shutil.rmtree(final)
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def load_meta(fixture: Path) -> dict[str, Any]:
    meta = json.loads((fixture / "meta.json").read_text())
    actual = file_digest(fixture / "bundle.json")
    if actual != meta["bundle_sha256"]:
        raise RuntimeError(
            f"fixture bundle digest {actual} != recorded "
            f"{meta['bundle_sha256']}")
    return meta
