"""Thread-hammer tests: concurrent access to the LRU memo and the
batched SelectionService must neither drop/duplicate decisions nor
break the serve.* counter partition.

The daemon drives one SelectionService from a thread pool (plus the
event-loop thread for the heuristic floor), so the cache, the service
batch path, and the telemetry counters all see genuine concurrency.
"""

import threading

import pytest

from repro.hwmodel import get_cluster
from repro.serve import (
    LRUCache,
    SelectionQuery,
    SelectionService,
)
from repro.serve.service import SERVE_COUNTER_KEYS
from repro.smpi.heuristics import MvapichDefaultSelector

N_THREADS = 8
ROUNDS = 40


@pytest.fixture(scope="module")
def ray_spec():
    return get_cluster("Ray")


def _run_threads(worker, n=N_THREADS):
    """Start n copies of worker behind a barrier; re-raise the first
    worker exception in the test thread."""
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(tid):
        try:
            barrier.wait()
            worker(tid)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestLRUCacheHammer:
    def test_disjoint_keys_none_lost(self):
        """Each thread owns a disjoint key range in an uncontended
        (large enough) cache: every put must be readable afterwards
        and the bookkeeping must balance exactly."""
        cache = LRUCache(N_THREADS * ROUNDS)

        def worker(tid):
            for i in range(ROUNDS):
                key = (tid, i)
                cache.put(key, tid * 1000 + i)
                assert cache.get(key) == tid * 1000 + i

        _run_threads(worker)
        assert len(cache) == N_THREADS * ROUNDS
        assert cache.evictions == 0
        for tid in range(N_THREADS):
            for i in range(ROUNDS):
                assert cache.get((tid, i)) == tid * 1000 + i

    def test_contended_eviction_invariants(self):
        """All threads fight over one tiny cache: entries may be
        evicted, but size never exceeds capacity, counters balance
        (hits + misses == gets), and a successful get returns the
        exact value that key was last put with."""
        capacity = 4
        cache = LRUCache(capacity)

        def worker(tid):
            for i in range(ROUNDS):
                key = i % 10
                cache.put(key, key * 7)  # same value for a given key
                value = cache.get(key)
                if value is not None:  # may have been evicted already
                    assert value == key * 7
                assert len(cache) <= capacity

        _run_threads(worker)
        assert len(cache) <= capacity
        assert cache.hits + cache.misses == N_THREADS * ROUNDS
        total_puts = N_THREADS * ROUNDS
        assert cache.evictions <= total_puts


class TestSelectionServiceHammer:
    def _queries(self, tid, i):
        # A mix of shared shapes (cache contention) and per-thread
        # shapes (distinct entries), plus a malformed query.
        return [
            SelectionQuery("allgather", 2, 4, 1 << (i % 12)),
            SelectionQuery("alltoall", 2, 4, 1 << (tid % 8)),
            SelectionQuery("bcast", 2, 4, -5),  # invalid, never raises
        ]

    def test_no_decision_dropped_or_duplicated(self, ray_spec):
        """Every thread gets exactly its own batch's decisions back,
        positionally matched to its queries, and each decision equals
        the single-threaded reference for that query."""
        service = SelectionService(MvapichDefaultSelector(), ray_spec,
                                   cache_size=64)
        reference_service = SelectionService(
            MvapichDefaultSelector(), ray_spec, cache_size=64)
        results = {}

        def worker(tid):
            mine = []
            for i in range(ROUNDS):
                queries = self._queries(tid, i)
                decisions = service.select_block(queries).to_decisions()
                assert len(decisions) == len(queries)
                for q, d in zip(queries, decisions):
                    # Positional match: the answer is for *my* query.
                    assert (d.collective, d.nodes, d.ppn,
                            d.msg_size) == (q.collective, q.nodes,
                                            q.ppn, q.msg_size)
                mine.append([d.algorithm for d in decisions])
            results[tid] = mine

        _run_threads(worker)
        assert sorted(results) == list(range(N_THREADS))
        # Decisions are deterministic: replay each thread's stream
        # serially and demand identical algorithms.
        for tid in range(N_THREADS):
            for i, algorithms in enumerate(results[tid]):
                expected = [
                    d.algorithm for d in
                    reference_service.select_block(
                        self._queries(tid, i)).to_decisions()]
                assert algorithms == expected

    def test_counter_partition_holds_under_hammer(self, ray_spec):
        """queries == cache_hits + deduped + cache_misses exactly,
        with the totals accounting for every submitted query."""
        service = SelectionService(MvapichDefaultSelector(), ray_spec,
                                   cache_size=1024)
        per_thread = ROUNDS * 3  # 3 queries per batch

        def worker(tid):
            for i in range(ROUNDS):
                service.select_block(self._queries(tid, i))

        _run_threads(worker)
        counters = service.counters
        assert set(counters) == set(SERVE_COUNTER_KEYS)
        assert counters["queries"] == N_THREADS * per_thread
        assert counters["queries"] == (counters["cache_hits"]
                                       + counters["deduped"]
                                       + counters["cache_misses"])
        # The malformed query misses the cache every batch it is
        # first seen in; invalid decisions are a subset of misses.
        assert 0 < counters["invalid"] <= counters["cache_misses"]

    def test_shared_registry_with_floor_service(self, ray_spec):
        """Two services on one registry (the daemon's model + floor
        arrangement) hammered from different threads: the shared
        counters must still balance."""
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        model = SelectionService(MvapichDefaultSelector(), ray_spec,
                                 cache_size=64, registry=registry)
        floor = SelectionService(MvapichDefaultSelector(), ray_spec,
                                 cache_size=64, registry=registry)

        def worker(tid):
            mine = model if tid % 2 else floor
            for i in range(ROUNDS):
                mine.select_block(self._queries(tid, i))

        _run_threads(worker)
        counters = registry.counters()
        assert counters["serve.queries"] == N_THREADS * ROUNDS * 3
        assert counters["serve.queries"] == (
            counters["serve.cache_hits"] + counters["serve.deduped"]
            + counters["serve.cache_misses"])
