"""A deliberately naive reference for :meth:`SelectionService.select_block`:
a dict memo in front of per-row :meth:`GuardedSelector.explain`.

It restates the service's contract in the plainest terms, so the
differential tests compare the columnar pipeline against it rather
than against a second optimized path:

* a row is *carried* (memoized) only when its collective is a known
  name and its three fields are non-bool integers inside int64 — after
  quantization for ``msg_size``;
* carried rows dedup on ``(collective, nodes, ppn, quantized msg)``:
  one memo probe per distinct key in first-occurrence order, the
  misses answered in that order and memoized after;
* every other row is answered on its own, after the carried keys, and
  never touches the memo.

``explain_block`` decides breaker admission once per block (the guard
docs); the reference mirrors that by fixing each key's admission before
any key of the block is explained.
"""

from collections import OrderedDict

import numpy as np

from repro.serve import ACTION_INVALID, SERVE_COUNTER_KEYS
from repro.serve import quantize_msg_size
from repro.serve.columnar import INT64_MAX, INT64_MIN
from repro.simcluster.machine import Machine
from repro.smpi.collectives.base import ALL_COLLECTIVES
from repro.smpi.guard import GuardedSelector
from repro.smpi.heuristics import InvalidQueryError, validate_query

FIELDS = ("collective", "nodes", "ppn", "msg_size")


def _row(q):
    if isinstance(q, dict):
        return tuple(q[f] for f in FIELDS)
    return tuple(getattr(q, f) for f in FIELDS)


def _int64(v):
    return not isinstance(v, bool) and isinstance(v, (int, np.integer)) \
        and INT64_MIN <= int(v) <= INT64_MAX


class ReferenceService:
    def __init__(self, selector, spec, cache_size=4096, quantize=True):
        self.guard = selector if isinstance(selector, GuardedSelector) \
            else GuardedSelector(selector)
        self.spec = spec
        self.capacity = cache_size
        self.quantize = quantize
        self.memo = OrderedDict()
        self.counters = dict.fromkeys(SERVE_COUNTER_KEYS, 0)

    def _msg(self, m):
        return quantize_msg_size(m) if self.quantize else m

    def _key(self, row):
        c, n, p, m = row
        if not (isinstance(c, str) and c in ALL_COLLECTIVES
                and all(map(_int64, (n, p, m)))):
            return None
        msg = int(self._msg(m))
        return (c, int(n), int(p), msg) if msg <= INT64_MAX else None

    def _problem(self, c, n, p, msg):
        """Why the scalar ladder rejects the row, else its Machine."""
        try:
            machine = Machine(self.spec, n, p)
        except (TypeError, ValueError) as exc:
            return f"bad job shape: {exc}"
        try:
            validate_query(c, machine, msg)
        except InvalidQueryError as exc:
            return str(exc)
        return machine

    def _answer(self, c, n, p, msg, admit=None):
        """The scalar rungs: (algorithm, action, detail)."""
        machine = self._problem(c, n, p, msg)
        if isinstance(machine, str):
            self.counters["invalid"] += 1
            return None, ACTION_INVALID, machine
        breaker = self.guard.breaker
        if admit is not None:
            breaker.allow_request = lambda: admit
        try:
            d = self.guard.explain(c, machine, msg)
        finally:
            breaker.__dict__.pop("allow_request", None)
        return d.algorithm, d.action, d.detail

    def _admissions(self, keys):
        """Breaker admission per key, decided for the whole block."""
        breaker = self.guard.breaker
        closed = breaker.state == "closed"
        out = {}
        for key in keys:
            machine = self._problem(*key)
            if not isinstance(machine, str) and self.guard._ood_detail(
                    key[0], machine, key[3]) is None:
                out[key] = closed or breaker.allow_request()
        return out

    def select(self, queries):
        """``[(algorithm, action, detail, cached)]`` per row."""
        rows = [_row(q) for q in queries]
        self.counters["queries"] += len(rows)
        keys = [self._key(r) for r in rows]
        occurrences = {}
        for key in keys:
            if key is not None:
                occurrences[key] = occurrences.get(key, 0) + 1
        answers = {}
        for key, count in occurrences.items():
            if key in self.memo:
                self.memo.move_to_end(key)
                answers[key] = self.memo[key]
                self.counters["cache_hits"] += count
        missed = [k for k in occurrences if k not in answers]
        fresh = set(missed)
        self.counters["cache_misses"] += len(missed)
        self.counters["deduped"] += sum(occurrences[k] - 1
                                        for k in missed)
        admissions = self._admissions(missed)
        for key in missed:
            answers[key] = self._answer(*key, admit=admissions.get(key))
        for key in missed:
            self.memo[key] = answers[key]
            self.memo.move_to_end(key)
            if len(self.memo) > self.capacity:
                self.memo.popitem(last=False)
                self.counters["evictions"] += 1
        out = [None] * len(rows)
        seen = set()
        for i, key in enumerate(keys):
            if key is not None:
                out[i] = answers[key] + (key not in fresh or key in seen,)
                seen.add(key)
        for i, key in enumerate(keys):
            if key is None:
                self.counters["cache_misses"] += 1
                c, n, p, m = rows[i]
                out[i] = self._answer(c, n, p, self._msg(m)) + (False,)
        return out
