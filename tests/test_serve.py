"""Unit tests for the serving layer: LRU memo, quantization, the
batched SelectionService, JSONL I/O, and the guard/selector block
paths it is built on."""

import numpy as np
import pytest

from repro.core.framework import offline_train
from repro.hwmodel import get_cluster
from repro.serve import (
    ACTION_INVALID,
    LRUCache,
    SelectionDecision,
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
    queries_from_jsonl,
    quantize_msg_size,
)
from repro.simcluster.machine import Machine
from repro.smpi.guard import (
    ACTION_ERROR,
    ACTION_MODEL,
    GuardDecision,
    GuardedSelector,
)
from repro.smpi.heuristics import (
    AlgorithmSelector,
    MvapichDefaultSelector,
    OpenMpiDefaultSelector,
)


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b", "missing") == "missing"
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # a becomes most recent
        cache.put("c", 3)       # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, not insert
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.get("a") == 10

    @pytest.mark.parametrize("bad", (0, -1, True, 2.5, "4"))
    def test_bad_capacity_rejected(self, bad):
        with pytest.raises(ValueError):
            LRUCache(bad)


class TestQuantize:
    @pytest.mark.parametrize("msg,expected", (
        (1, 1), (2, 2), (3, 4), (1000, 1024), (1024, 1024),
        (1536, 2048), (1100, 1024), (5, 4), (6, 8),
    ))
    def test_snaps_to_nearest_power_of_two(self, msg, expected):
        assert quantize_msg_size(msg) == expected

    @pytest.mark.parametrize("junk", (0, -8, True, False, 2.5, "64",
                                      None))
    def test_junk_passes_through(self, junk):
        assert quantize_msg_size(junk) is junk

    def test_numpy_integers_quantize_like_plain_ints(self):
        """Regression: np.integer message sizes used to fall through
        the junk-passthrough and bypass the memo-key quantization."""
        for msg in (3, 1000, 1536, 2**40 + 7):
            out = quantize_msg_size(np.int64(msg))
            assert out == quantize_msg_size(msg)
            assert type(out) is int

    @pytest.mark.parametrize("msg,expected", (
        # float log2(msg) is exactly *.5 for these, so a float
        # midpoint test (or banker's rounding) snaps them down; the
        # exact integer rule rounds half up.
        (398065729532861, 2**49),
        (199032864766430, 2**47),
        # true geometric midpoints: isqrt(2^(2e+1)) sits below the
        # midpoint, its successor at-or-above.
        (181, 128), (182, 256),
        (46340, 32768), (46341, 65536),
    ))
    def test_midpoints_round_half_up_exactly(self, msg, expected):
        assert quantize_msg_size(msg) == expected


@pytest.fixture(scope="module")
def ray_spec():
    return get_cluster("Ray")


@pytest.fixture()
def service(ray_spec):
    return SelectionService(MvapichDefaultSelector(), ray_spec,
                            cache_size=64)


class TestSelectionService:
    def test_decisions_match_direct_guard(self, ray_spec, service):
        queries = [SelectionQuery("allgather", 2, 4, 4096),
                   SelectionQuery("bcast", 2, 8, 65536),
                   SelectionQuery("alltoall", 1, 8, 128)]
        decisions = service.select_block(queries).to_decisions()
        guard = GuardedSelector(MvapichDefaultSelector())
        for q, d in zip(queries, decisions):
            machine = Machine(ray_spec, q.nodes, q.ppn)
            expected = guard.select(q.collective, machine,
                                    quantize_msg_size(q.msg_size))
            assert d.algorithm == expected
            assert d.action == ACTION_MODEL
            assert (d.collective, d.nodes, d.ppn, d.msg_size) == \
                (q.collective, q.nodes, q.ppn, q.msg_size)

    def test_memo_hit_on_second_batch(self, service):
        q = SelectionQuery("allgather", 2, 4, 4096)
        first = service.select_block([q]).to_decisions()[0]
        second = service.select_block([q]).to_decisions()[0]
        assert not first.cached and second.cached
        assert second.algorithm == first.algorithm
        assert service.counters["cache_hits"] == 1

    def test_quantized_sizes_share_one_entry(self, service):
        a, b = service.select_block(
            [SelectionQuery("allgather", 2, 4, 1000),
             SelectionQuery("allgather", 2, 4, 1100)]).to_decisions()
        assert not a.cached and b.cached
        assert a.msg_size == 1000 and b.msg_size == 1100
        assert service.counters["deduped"] == 1

    def test_no_quantize_keeps_sizes_distinct(self, ray_spec):
        service = SelectionService(MvapichDefaultSelector(), ray_spec,
                                   quantize=False)
        service.select_block([SelectionQuery("allgather", 2, 4, 1000),
                              SelectionQuery("allgather", 2, 4, 1100)])
        assert service.counters["cache_misses"] == 2
        assert service.counters["deduped"] == 0

    def test_invalid_queries_never_raise(self, service):
        decisions = service.select_block(
            [SelectionQuery("nope", 2, 4, 64),
             SelectionQuery("bcast", 0, 4, 64),
             SelectionQuery("bcast", 10**9, 4, 64),
             SelectionQuery("bcast", 2, 4, -1),
             SelectionQuery("bcast", 2, 4, "big")]).to_decisions()
        assert all(d.action == ACTION_INVALID for d in decisions)
        assert all(d.algorithm is None for d in decisions)
        assert service.counters["invalid"] == 5

    def test_empty_batch(self, service):
        assert service.select_block([]).to_decisions() == []
        assert service.counters["queries"] == 0

    def test_eviction_counter_mirrors_cache(self, ray_spec):
        service = SelectionService(MvapichDefaultSelector(), ray_spec,
                                   cache_size=2, quantize=False)
        service.select_block([SelectionQuery("allgather", 2, 4, m)
                              for m in (64, 128, 256, 512)])
        assert service.counters["evictions"] == 2
        assert service.counters["evictions"] == service.cache.evictions

    def test_wraps_plain_selector_in_guard(self, ray_spec):
        service = SelectionService(MvapichDefaultSelector(), ray_spec)
        assert isinstance(service.guard, GuardedSelector)
        guard = GuardedSelector(OpenMpiDefaultSelector())
        assert SelectionService(guard, ray_spec).guard is guard


class TestJsonl:
    def test_round_trip(self):
        text = ('{"collective":"bcast","nodes":2,"ppn":4,"msg_size":64}\n'
                "\n"
                '{"collective":"allgather","nodes":1,"ppn":8,'
                '"msg_size":1024}\n')
        queries = queries_from_jsonl(text)
        assert queries == [SelectionQuery("bcast", 2, 4, 64),
                           SelectionQuery("allgather", 1, 8, 1024)]

    @pytest.mark.parametrize("bad,excerpt", (
        ("not json", "not valid JSON"),
        ("[1,2]", "expected a JSON object"),
        ('{"collective":"bcast","nodes":2}', "missing key"),
    ))
    def test_broken_lines_raise_with_line_number(self, bad, excerpt):
        good = '{"collective":"bcast","nodes":2,"ppn":4,"msg_size":64}'
        with pytest.raises(ValueError, match=f"line 2.*{excerpt}"):
            queries_from_jsonl(f"{good}\n{bad}\n")

    def test_decisions_jsonl_deterministic(self):
        decisions = [SelectionDecision("bcast", 2, 4, 64, "binomial",
                                       ACTION_MODEL),
                     SelectionDecision("nope", 2, 4, 64, None,
                                       ACTION_INVALID, "unknown")]
        once = decisions_to_jsonl(decisions)
        assert once == decisions_to_jsonl(list(decisions))
        assert once.endswith("\n") and once.count("\n") == 2
        assert '"algorithm":null' in once


class _ExplodingBlockSelector(MvapichDefaultSelector):
    """Scalar path works; the block path always raises — forces the
    guard's sequential replay."""

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        raise RuntimeError("vectorized path down")


class _CountingSelector(MvapichDefaultSelector):
    def __init__(self):
        self.block_calls = 0
        self.scalar_calls = 0

    def select(self, collective, machine, msg_size):
        self.scalar_calls += 1
        return super().select(collective, machine, msg_size)

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        self.block_calls += 1
        return np.array([
            MvapichDefaultSelector.select(self, c, Machine(spec, n, p), m)
            for c, n, p, m in zip(collectives.tolist(), nodes.tolist(),
                                  ppn.tolist(), msg_size.tolist())],
            dtype=object)


def _explain_block(guard, spec, queries):
    """``explain_block`` over ``(collective, machine, msg)`` triples, as
    GuardDecisions (the columnar serving layer's call, by hand)."""
    cols = list(zip(*[(c, m.nodes, m.ppn, msg) for c, m, msg in queries]))
    alg, act, det = guard.explain_block(
        spec, np.array(cols[0], dtype=object),
        *(np.array(col, dtype=np.int64) for col in cols[1:]))
    return [GuardDecision(c, a, x, d)
            for c, a, x, d in zip(cols[0], alg, act, det)]


class TestGuardBatch:
    """``explain_block`` — the guard's one batch path — against the
    per-query ``explain`` ladder."""

    def _queries(self, spec, n=12):
        rng = np.random.default_rng(0)
        out = []
        for _ in range(n):
            nodes = int(rng.integers(1, 3))
            ppn = int(2 ** rng.integers(1, 4))
            msg = int(2 ** rng.integers(4, 20))
            out.append(("allgather", Machine(spec, nodes, ppn), msg))
        return out

    def test_batch_matches_scalar_loop(self, ray_spec):
        queries = self._queries(ray_spec)
        for inner in (MvapichDefaultSelector, _CountingSelector):
            batch_decisions = _explain_block(
                GuardedSelector(inner()), ray_spec, queries)
            scalar_guard = GuardedSelector(inner())
            scalar_decisions = [scalar_guard.explain(*q) for q in queries]
            assert batch_decisions == scalar_decisions

    def test_one_inner_batch_call(self, ray_spec):
        inner = _CountingSelector()
        _explain_block(GuardedSelector(inner), ray_spec,
                       self._queries(ray_spec))
        assert inner.block_calls == 1 and inner.scalar_calls == 0

    def test_counter_partition_holds(self, ray_spec):
        guard = GuardedSelector(MvapichDefaultSelector())
        _explain_block(guard, ray_spec, self._queries(ray_spec))
        c = guard.counters
        assert c["queries"] == 12
        assert c["queries"] == (c["invalid"] + c["served_model"]
                                + c["remapped"] + c["ood_fallback"]
                                + c["breaker_fallback"]
                                + c["error_fallback"])

    def test_failed_batch_replays_scalar(self, ray_spec):
        queries = self._queries(ray_spec)
        guard = GuardedSelector(_ExplodingBlockSelector())
        decisions = _explain_block(guard, ray_spec, queries)
        reference = [GuardedSelector(MvapichDefaultSelector()).explain(*q)
                     for q in queries]
        assert [d.algorithm for d in decisions] == \
            [d.algorithm for d in reference]
        assert all(d.action == ACTION_MODEL for d in decisions)

    def test_wrong_length_batch_result_replays(self, ray_spec):
        class ShortBlock(MvapichDefaultSelector):
            def select_block(self, spec, collectives, nodes, ppn,
                             msg_size):
                return np.array(["ring"], dtype=object)  # wrong length

        queries = self._queries(ray_spec, n=4)
        decisions = _explain_block(GuardedSelector(ShortBlock()),
                                   ray_spec, queries)
        assert len(decisions) == 4
        assert all(d.action == ACTION_MODEL for d in decisions)


class TestSelectorBatchDefault:
    def test_base_class_loops_over_select(self, ray_spec):
        """A selector without ``select_block`` is asked once per
        admitted row through ``select`` — the default batch path."""
        class Plain(AlgorithmSelector):
            def __init__(self):
                self.calls = []

            def select(self, collective, machine, msg_size):
                self.calls.append((collective, machine.nodes,
                                   machine.ppn, msg_size))
                return OpenMpiDefaultSelector().select(
                    collective, machine, msg_size)

        inner = Plain()
        machine = Machine(ray_spec, 2, 8)
        queries = [("bcast", machine, 2 ** e) for e in range(4, 24, 2)]
        decisions = _explain_block(GuardedSelector(inner), ray_spec,
                                   queries)
        assert inner.calls == [(c, 2, 8, m) for c, _, m in queries]
        assert [d.algorithm for d in decisions] == \
            [OpenMpiDefaultSelector().select(*q) for q in queries]


@pytest.fixture(scope="module")
def trained_guard(mini_dataset):
    selector = offline_train(mini_dataset, family="rf",
                             collectives=("allgather", "alltoall"))
    return GuardedSelector(selector), selector


class TestPretrainedBatch:
    def test_batch_matches_scalar(self, trained_guard):
        _, selector = trained_guard
        spec = get_cluster("Ray")
        rng = np.random.default_rng(1)
        queries = []
        for _ in range(20):
            machine = Machine(spec, int(rng.integers(1, 3)),
                              int(2 ** rng.integers(1, 4)))
            coll = ("allgather", "alltoall")[int(rng.integers(2))]
            queries.append((coll, machine,
                            int(2 ** rng.integers(4, 18))))
        cols = list(zip(*[(c, m.nodes, m.ppn, msg)
                          for c, m, msg in queries]))
        got = selector.select_block(
            spec, np.array(cols[0], dtype=object),
            *(np.array(col, dtype=np.int64) for col in cols[1:]))
        assert got.tolist() == [selector.select(*q) for q in queries]

    def test_missing_model_raises(self, trained_guard):
        _, selector = trained_guard
        one = np.array([2], dtype=np.int64)
        with pytest.raises(KeyError, match="bcast"):
            selector.select_block(get_cluster("Ray"),
                                  np.array(["bcast"], dtype=object),
                                  one, one * 2, one * 32)

    def test_service_over_trained_guard(self, trained_guard):
        guard, _ = trained_guard
        service = SelectionService(guard, get_cluster("Ray"))
        decisions = service.select_block(
            [SelectionQuery("allgather", 2, 4, 4096),
             SelectionQuery("alltoall", 1, 8, 1 << 20)]).to_decisions()
        assert all(d.algorithm is not None for d in decisions)

    def test_guard_error_fallback_still_feasible(self, ray_spec):
        class Exploding(AlgorithmSelector):
            def select(self, collective, machine, msg_size):
                raise RuntimeError("model file corrupt")

        service = SelectionService(Exploding(), ray_spec)
        decision = service.select_block(
            [SelectionQuery("allgather", 2, 4, 64)]).to_decisions()[0]
        assert decision.action == ACTION_ERROR
        assert decision.algorithm is not None
