#!/usr/bin/env python
"""Regenerate the golden serving fixture under tests/golden/.

The fixture freezes three artifacts:

* ``mini_dataset.jsonl.gz`` — the RI+Ray tuning dataset (so the golden
  path never depends on collection-time determinism),
* ``queries.jsonl`` — a fixed query batch: grid points, off-grid sizes
  that exercise quantization, duplicates, and malformed lines,
* ``expected_decisions.jsonl`` — the service's byte-exact answers.

``tests/test_golden_serve.py`` replays the dataset through training and
serving and compares its JSONL output byte-for-byte.  Rerun this script
(``PYTHONPATH=src python scripts/make_golden.py``) only when an
intentional behaviour change moves the expected decisions, and review
the diff it prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.dataset import collect_dataset  # noqa: E402
from repro.core.framework import offline_train  # noqa: E402
from repro.hwmodel import get_cluster  # noqa: E402
from repro.serve import (  # noqa: E402
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
)
from repro.smpi.guard import GuardedSelector  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "golden"
GOLDEN_CLUSTERS = ("RI", "Ray")
GOLDEN_COLLECTIVES = ("allgather", "alltoall")
SERVE_CLUSTER = "Ray"


def golden_queries() -> list[SelectionQuery]:
    """The frozen query batch: valid grid points, off-grid sizes,
    duplicates, and malformed queries (which must be answered as
    ``invalid`` decisions, never dropped)."""
    queries = []
    for collective in GOLDEN_COLLECTIVES:
        for nodes in (1, 2):
            for ppn in (2, 8):
                for msg in (64, 1000, 1024, 1100, 1 << 18):
                    queries.append(SelectionQuery(
                        collective, nodes, ppn, msg))
    queries += [
        SelectionQuery("allgather", 2, 8, 64),      # exact duplicate
        SelectionQuery("bcast", 2, 4, 4096),        # no trained model
        SelectionQuery("nope", 2, 4, 64),           # unknown collective
        SelectionQuery("allgather", 0, 4, 64),      # bad shape
        SelectionQuery("allgather", 2, 4, -8),      # bad size
    ]
    return queries


def build_service() -> SelectionService:
    dataset_path = GOLDEN_DIR / "mini_dataset.jsonl.gz"
    if dataset_path.exists():
        from repro.core.dataset import TuningDataset
        dataset = TuningDataset.load(dataset_path)
    else:
        dataset = collect_dataset(
            clusters=[get_cluster(n) for n in GOLDEN_CLUSTERS],
            collectives=GOLDEN_COLLECTIVES, use_cache=False)
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        dataset.save(dataset_path)
    selector = offline_train(dataset, family="rf",
                             collectives=GOLDEN_COLLECTIVES)
    return SelectionService(GuardedSelector(selector),
                            get_cluster(SERVE_CLUSTER), cache_size=256)


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    queries = golden_queries()
    (GOLDEN_DIR / "queries.jsonl").write_text("".join(
        json.dumps({"collective": q.collective, "nodes": q.nodes,
                    "ppn": q.ppn, "msg_size": q.msg_size},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for q in queries))
    service = build_service()
    payload = decisions_to_jsonl(
        service.select_block(queries).to_decisions())
    expected_path = GOLDEN_DIR / "expected_decisions.jsonl"
    old = expected_path.read_text() if expected_path.exists() else None
    expected_path.write_text(payload)
    if old is not None and old != payload:
        print("expected_decisions.jsonl CHANGED — review this diff:")
        for i, (a, b) in enumerate(zip(old.splitlines(),
                                       payload.splitlines()), 1):
            if a != b:
                print(f"  line {i}:\n  - {a}\n  + {b}")
    print(f"golden fixture written under {GOLDEN_DIR} "
          f"({len(queries)} queries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
