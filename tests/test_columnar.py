"""Differential hardening of the columnar serving pipeline.

The contract under test: :meth:`SelectionService.select_block` is
*decision-for-decision identical* to a naive reference — a dict memo in
front of per-row :meth:`GuardedSelector.explain` (``serve_reference``)
— with the same algorithm/action/detail/cached per row, the same
``serve.*`` counter partition, the same ``guard.*`` counter partition
and the same breaker state, for every batch shape we can throw at it:
mixed valid/invalid/OOD/infeasible rows in one block, NumPy-typed
fields, bools, floats, junk objects, empty blocks, single rows, and
all-duplicate blocks.
"""

import random

import numpy as np
import pytest

from repro.core.inference import PretrainedSelector
from repro.core.training import train_model
from repro.hwmodel import get_cluster
from repro.serve import (
    DecisionBlock,
    QueryBlock,
    SelectionDecision,
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
    quantize_msg_size,
)
from repro.serve.columnar import QUANTIZE_MAX, quantize_block
from repro.simcluster.machine import Machine
from repro.smpi.guard import COUNTER_KEYS, GuardedSelector
from repro.smpi.heuristics import (
    FixedSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
)

from .serve_reference import ReferenceService


@pytest.fixture(scope="module")
def ri_spec():
    return get_cluster("RI")


def _pair(make_selector, spec, cache_size=4096, quantize=True):
    """The service under test and the reference, each with its own
    freshly built selector."""
    svc = SelectionService(make_selector(), spec, cache_size=cache_size,
                           quantize=quantize)
    ref = ReferenceService(make_selector(), spec, cache_size=cache_size,
                           quantize=quantize)
    return svc, ref


def _assert_identical(svc, ref, batches):
    """Feed *batches* to the service and the reference and compare
    everything."""
    for batch in batches:
        expected = ref.select(list(batch))
        got = svc.select_block(list(batch)).to_decisions()
        assert len(got) == len(expected)
        for q, x, y in zip(batch, expected, got):
            assert x == (y.algorithm, y.action, y.detail, y.cached), q
            assert (q.collective, q.nodes, q.ppn, q.msg_size) == \
                (y.collective, y.nodes, y.ppn, y.msg_size), q
    assert svc.counters == ref.counters
    assert svc.guard.counters == ref.guard.counters
    assert svc.guard.breaker.state == ref.guard.breaker.state
    assert svc.cache.keys() == list(ref.memo)
    c = svc.counters
    assert c["queries"] == c["cache_hits"] + c["deduped"] \
        + c["cache_misses"]
    assert c["invalid"] <= c["cache_misses"]
    g = svc.guard.counters
    assert g["queries"] == sum(g[k] for k in COUNTER_KEYS[1:7])


# ---------------------------------------------------------------------------
# Deterministic adversarial blocks
# ---------------------------------------------------------------------------

class TestAdversarialBlocks:
    def test_mixed_everything_single_block(self, ri_spec):
        """One block holding every row class at once: served, duplicate,
        NumPy-typed, bool-typed, out-of-range, unknown collective, and
        object junk."""
        batch = [
            SelectionQuery("allgather", 2, 8, 4096),          # model
            SelectionQuery("allgather", 2, 8, 4096),          # dup
            SelectionQuery("allgather", 2, 8, 4100),          # quantize-dup
            SelectionQuery("allgather", np.int64(2), np.int64(8),
                           np.int64(4096)),                   # np dup
            SelectionQuery("alltoall", 1, 16, 64),            # model
            SelectionQuery("allreduce", 2, 3, 1024),          # model
            SelectionQuery("bogus", 2, 8, 64),                # unknown
            SelectionQuery("allgather", 99, 8, 64),           # bad nodes
            SelectionQuery("allgather", 2, 0, 64),            # bad ppn
            SelectionQuery("allgather", 2, 8, -5),            # bad size
            SelectionQuery("allgather", True, 8, 64),         # bool nodes
            SelectionQuery("allgather", 2, 8, False),         # bool size
            SelectionQuery("allgather", None, 8, 64),         # junk
            SelectionQuery("allgather", 2, "8", 64),          # junk
            SelectionQuery(42, 2, 8, 64),                     # junk coll
            SelectionQuery("allgather", 2, 8, 10**25),        # overflow
        ]
        svc, ref = _pair(MvapichDefaultSelector, ri_spec)
        _assert_identical(svc, ref, [batch])
        assert svc.counters["invalid"] > 0

    @pytest.mark.parametrize("quantize", (True, False))
    def test_empty_single_and_all_duplicates(self, ri_spec, quantize):
        q = SelectionQuery("bcast", 1, 4, 32768)
        svc, ref = _pair(OpenMpiDefaultSelector, ri_spec,
                         quantize=quantize)
        _assert_identical(svc, ref, [[], [q], [q] * 50])
        # all-duplicate block: one miss (already resolved), rest dedup
        # or hits depending on the earlier batches — partition checked
        # inside _assert_identical either way.
        assert svc.counters["queries"] == 51

    def test_numpy_typed_fields_share_keys_with_plain_ints(self, ri_spec):
        """np.integer fields must land on the same memo entries as the
        equal plain ints, in both directions."""
        plain = SelectionQuery("allgather", 2, 8, 1000)
        typed = SelectionQuery("allgather", np.int64(2), np.int32(8),
                               np.int64(1000))
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        first = svc.select_block([plain]).to_decisions()[0]
        assert first.cached is False
        via_typed = svc.select_block([typed]).to_decisions()[0]
        assert via_typed.cached is True
        assert via_typed.algorithm == first.algorithm
        other = SelectionQuery("allgather", np.int64(1), np.int64(8),
                               np.int64(64))
        assert svc.select_block([other]).to_decisions()[0].cached is False
        again = svc.select_block(
            [SelectionQuery("allgather", 1, 8, 64)]).to_decisions()[0]
        assert again.cached is True
        assert svc.counters["cache_hits"] == 2

    def test_infeasible_predictions_and_breaker_replay(self, ri_spec):
        """Valid-but-infeasible predictions trip the guard per unique
        key; the breaker opens inside a block (admission was decided
        at intake, so the block's rows are all remapped), and once
        open, refusals replay per row."""
        rng = random.Random(5)
        mk = lambda: GuardedSelector(
            FixedSelector("allgather", "recursive_doubling"))
        svc, ref = _pair(mk, ri_spec, quantize=False)
        batches = [
            [SelectionQuery("allgather", 1, 3, rng.randint(1, 10**6))
             for _ in range(rng.randint(5, 60))]
            for _ in range(6)
        ]
        _assert_identical(svc, ref, batches)
        assert svc.guard.breaker.state == "open"
        assert svc.guard.counters["breaker_fallback"] > 0
        assert svc.guard.counters["remapped"] > \
            svc.guard.breaker.failure_threshold

    def test_cross_path_memo_interop(self, ri_spec):
        """A key resolved from raw records is a hit for query objects
        (and the other way round): both ingestion paths share keys."""
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        record = {"collective": "alltoall", "nodes": 2, "ppn": 8,
                  "msg_size": 2048}
        d1 = svc.select_block([record]).to_decisions()[0]
        assert d1.cached is False
        d2 = svc.select_block(
            [SelectionQuery("alltoall", 2, 8, 2048)]).to_decisions()[0]
        assert d2.cached is True
        assert (d2.algorithm, d2.detail) == (d1.algorithm, d1.detail)
        q = SelectionQuery("bcast", 1, 4, 512)
        assert svc.select_block([q]).to_decisions()[0].cached is False
        d4 = svc.select_block([{"collective": "bcast", "nodes": 1,
                                "ppn": 4, "msg_size": 512}]).to_dicts()[0]
        assert d4["cached"] is True

    def test_records_and_queries_agree(self, ri_spec):
        """The daemon's raw-dict ingestion is the same pipeline."""
        records = [
            {"collective": "allgather", "nodes": 2, "ppn": 8,
             "msg_size": 4096},
            {"collective": "bogus", "nodes": 2, "ppn": 8, "msg_size": 1},
            {"collective": "bcast", "nodes": 1, "ppn": 4,
             "msg_size": 123},
        ]
        queries = [SelectionQuery(r["collective"], r["nodes"], r["ppn"],
                                  r["msg_size"]) for r in records]
        a = SelectionService(MvapichDefaultSelector(), ri_spec)
        b = SelectionService(MvapichDefaultSelector(), ri_spec)
        da = a.select_block(queries).to_dicts()
        db = b.select_block(records).to_dicts()
        assert da == db
        assert a.counters == b.counters

    def test_jsonl_byte_identical_on_clean_batch(self, ri_spec):
        """For JSON-shaped inputs (the daemon's case) the serialized
        decisions are byte-identical to the reference's."""
        batch = [SelectionQuery("allreduce", 2, 8, m)
                 for m in (1, 64, 1000, 1024, 1100, 2**18)]
        batch += [SelectionQuery("bogus", 1, 1, 1),
                  SelectionQuery("allreduce", 0, 8, 64)]
        svc, ref = _pair(MvapichDefaultSelector, ri_spec)
        expected = [SelectionDecision(q.collective, q.nodes, q.ppn,
                                      q.msg_size, *x)
                    for q, x in zip(batch, ref.select(batch))]
        assert decisions_to_jsonl(expected) == \
            decisions_to_jsonl(svc.select_block(batch).to_decisions())


# ---------------------------------------------------------------------------
# Malformed twins of a valid key never share its memo entry
# ---------------------------------------------------------------------------

VALID_RECORD = {"collective": "allgather", "nodes": 1, "ppn": 8,
                "msg_size": 64}


def _twin(field, value):
    return {**VALID_RECORD, field: value}


TWINS = [
    (_twin("nodes", True), "machine.nodes must be an integer, got True"),
    (_twin("nodes", 1.0), "machine.nodes must be an integer, got 1.0"),
    (_twin("msg_size", 64.0), "msg_size must be an integer, got 64.0"),
]


class TestMemoPoisoning:
    """``True == 1`` and ``1.0 == 1``: a malformed spelling of a valid
    key must neither decide the valid key's answer nor borrow it, in
    either arrival order, inside one batch or across batches."""

    @pytest.fixture()
    def svc(self, ri_spec):
        return SelectionService(MvapichDefaultSelector(), ri_spec,
                                cache_size=64)

    @staticmethod
    def _model_answer(spec):
        return GuardedSelector(MvapichDefaultSelector()).explain(
            "allgather", Machine(spec, 1, 8), 64).algorithm

    def _check(self, decision, record, detail, spec, cached=False):
        if detail is None:
            assert decision["action"] == "model"
            assert decision["algorithm"] == self._model_answer(spec)
        else:
            assert decision["action"] == "invalid"
            assert decision["algorithm"] is None
            assert decision["detail"] == detail
        assert decision["cached"] is cached
        for field in ("collective", "nodes", "ppn", "msg_size"):
            assert decision[field] is record[field]

    @pytest.mark.parametrize("twin,detail", TWINS)
    @pytest.mark.parametrize("twin_first", (True, False))
    def test_one_batch(self, svc, ri_spec, twin, detail, twin_first):
        pair = [(twin, detail), (VALID_RECORD, None)]
        if not twin_first:
            pair.reverse()
        got = svc.select_block([r for r, _ in pair]).to_dicts()
        for decision, (record, want) in zip(got, pair):
            self._check(decision, record, want, ri_spec)
        assert svc.counters["invalid"] == 1
        assert svc.counters["cache_misses"] == 2
        assert len(svc.cache) == 1

    @pytest.mark.parametrize("twin,detail", TWINS)
    @pytest.mark.parametrize("twin_first", (True, False))
    def test_across_batches(self, svc, ri_spec, twin, detail,
                            twin_first):
        order = [(twin, detail), (VALID_RECORD, None)]
        if not twin_first:
            order.reverse()
        valid_seen = False
        for record, want in order * 2:
            decision = svc.select_block([record]).to_dicts()[0]
            # The valid key is memoized after its first sight; the
            # malformed twin never is.
            self._check(decision, record, want, ri_spec,
                        cached=want is None and valid_seen)
            valid_seen |= want is None
        assert svc.counters["cache_hits"] == 1
        assert svc.counters["invalid"] == 2


# ---------------------------------------------------------------------------
# Seeded fuzz across both heuristic families
# ---------------------------------------------------------------------------

JUNK = (None, "x", 3.5, -1, 0, True, False, 10**25, -(10**25), "8")
COLLECTIVES = ("allgather", "alltoall", "allreduce", "bcast",
               "reduce_scatter")


def _random_batch(rng, n):
    batch = []
    for _ in range(n):
        if rng.random() < 0.25:
            batch.append(SelectionQuery(
                rng.choice(COLLECTIVES + ("bogus", 42)),
                rng.choice(JUNK + (1, 2, np.int64(2))),
                rng.choice(JUNK + (1, 8, np.int64(16))),
                rng.choice(JUNK + (64, np.int64(1024)))))
        else:
            batch.append(SelectionQuery(
                rng.choice(COLLECTIVES), rng.randint(1, 3),
                rng.randint(1, 20),
                rng.choice([1, 64, 1000, 1024, 4096, 2**18,
                            rng.randint(1, 10**7)])))
    return batch


class TestFuzzDifferential:
    @pytest.mark.parametrize("make_selector,quantize", (
        (MvapichDefaultSelector, True),
        (MvapichDefaultSelector, False),
        (OpenMpiDefaultSelector, True),
    ))
    def test_heuristic_batches(self, ri_spec, make_selector, quantize):
        rng = random.Random(13)
        svc, ref = _pair(make_selector, ri_spec, quantize=quantize)
        batches = [_random_batch(rng, rng.randint(0, 200))
                   for _ in range(5)]
        _assert_identical(svc, ref, batches)

    def test_pretrained_with_ood_and_missing_models(self, ri_spec,
                                                    mini_dataset):
        """Model path + OOD envelope routing + error fallback (queries
        for collectives the bundle lacks raise inside the inner
        selector) — all in the same blocks."""
        def mk():
            models = {c: train_model(mini_dataset, c, seed=0,
                                     params={"n_estimators": 4})
                      for c in ("allgather", "alltoall")}
            return GuardedSelector(PretrainedSelector(models))

        rng = random.Random(29)
        svc, ref = _pair(mk, ri_spec, cache_size=8192)
        batches = []
        for _ in range(4):
            batch = _random_batch(rng, rng.randint(1, 150))
            # far-OOD shapes/sizes relative to the trained grid
            batch += [SelectionQuery("allgather", 1, 1, 2**30),
                      SelectionQuery("alltoall", 2, 16, 1)]
            batches.append(batch)
        _assert_identical(svc, ref, batches)
        assert svc.guard.counters["ood_fallback"] > 0
        assert svc.guard.counters["error_fallback"] > 0


# ---------------------------------------------------------------------------
# Columnar building blocks
# ---------------------------------------------------------------------------

class TestQuantizeBlock:
    def test_matches_scalar_exhaustively_near_boundaries(self):
        import math
        vals = [1, 2, 3, 5, 6, 7, 1023, 1024, 1025,
                398065729532861, 199032864766430,
                QUANTIZE_MAX, QUANTIZE_MAX - 1]
        vals += [(1 << e) + d for e in range(1, 62) for d in (-1, 0, 1)]
        vals += [math.isqrt(1 << (2 * e + 1)) + d
                 for e in range(62) for d in (-1, 0, 1, 2)]
        vals = [v for v in vals if v >= 1]
        arr = np.array(vals, dtype=np.int64)
        got = quantize_block(arr)
        for v, g in zip(vals, got.tolist()):
            assert g == quantize_msg_size(v), v

    def test_random_values_match_scalar(self):
        rng = random.Random(0)
        vals = [rng.randrange(1, QUANTIZE_MAX) for _ in range(20_000)]
        got = quantize_block(np.array(vals, dtype=np.int64))
        for v, g in zip(vals, got.tolist()):
            assert g == quantize_msg_size(v), v


class TestQueryBlock:
    def test_row_classification(self):
        blk = QueryBlock.from_queries([
            SelectionQuery("allgather", 2, 8, 64),
            SelectionQuery("allgather", np.int64(2), 8, 64),
            SelectionQuery("allgather", True, 8, 64),
            SelectionQuery("bogus", 2, 8, 64),
            SelectionQuery("allgather", 2.0, 8, 64),
            SelectionQuery("allgather", 2, 8, 10**25),
            SelectionQuery("allgather", 2, np.bool_(True), 64),
        ])
        assert blk.columnar.tolist() == [True, True, False, False,
                                         False, False, False]
        assert blk.nodes64[:2].tolist() == [2, 2]

    def test_overflow_batch_falls_back_but_answers(self, ri_spec):
        """A positive msg_size past int64 (or whose quantization is)
        is a valid query the block cannot carry: answered on its own
        by the scalar ladder, never memoized, beside a normal block."""
        big = [10**25, QUANTIZE_MAX + 1, 2**63 - 1]
        batch = [SelectionQuery("allgather", 2, 8, m) for m in big]
        batch += [SelectionQuery("allgather", 2, 8, 64)] * 2
        for quantize in (True, False):
            svc, ref = _pair(MvapichDefaultSelector, ri_spec,
                             quantize=quantize)
            _assert_identical(svc, ref, [batch, batch])
            got = svc.select_block(batch).to_decisions()
            assert all(d.algorithm is not None for d in got)
            assert [d.cached for d in got[:3]] == [False] * 3 \
                if quantize else [False, False, True]
            assert len(svc.cache) == (1 if quantize else 3)

    def test_float_int_key_aliasing_falls_back(self, ri_spec):
        """``2.0 == 2`` would share a memo key; the float row falls
        back to the scalar rungs on its own and the valid key keeps
        its own decision, in either order."""
        batches = [
            [SelectionQuery("allgather", 2, 8, 64),
             SelectionQuery("allgather", 2.0, 8, 64)],
            [SelectionQuery("allgather", 2.0, 8, 128),
             SelectionQuery("allgather", 2, 8, 128)],
        ]
        svc, ref = _pair(MvapichDefaultSelector, ri_spec)
        _assert_identical(svc, ref, batches)
        assert svc.counters["invalid"] == 2
        assert svc.counters["cache_hits"] == 0


class TestDecisionBlock:
    def test_to_dicts_matches_to_decisions(self, ri_spec):
        svc = SelectionService(MvapichDefaultSelector(), ri_spec,
                               cache_size=64)
        batch = [SelectionQuery("allgather", 2, 8, 4096),
                 SelectionQuery("bogus", 1, 1, 1)]
        block = svc.select_block(batch)
        assert isinstance(block, DecisionBlock)
        assert block.to_dicts() == [d.to_dict()
                                    for d in block.to_decisions()]
        assert block.n == 2
