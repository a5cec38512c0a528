"""Per-layer metrics of a traced run (``--trace 1``).

Spans come from two places: the benchmark process (its in-process
stages and the client's JSON codec) and the daemon launched through
:mod:`launcher`.  Both use the
system-wide monotonic clock, so a daemon span is attributed to the
client request whose round-trip window contains its start.

*Closure*: over the closed windows (each timed request on ``online``,
each warm batch on ``bulk``) the self times of all spans, plus the
simulator time folded into them, are subtracted from the raw
end-to-end time; what is left is reported as ``daemon.residual_ms``
per request (socket and the daemon's connection loop outside request
dispatch) and as ``closure.unattributed_frac``.  Per-layer times are
raw wall clock, not rescaled to the reference host speed.  The daemon's own dispatch overhead
(event loop, admission, worker-pool hop) is ``daemon.dispatch_ms``.

A metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Any

import tracing

# span fields
NAME, THREAD, START, END, SELF, FOLDED, CALLS, ATTRS = range(8)
#: serve-path spans summed into service.select_block_ms (the
#: serve.service / serve.columnar / serve.cache layers)
SERVICE = ("service.select_block", "columnar.from_records",
           "cache.get_many", "cache.put_many")


def _within(spans: list[list], windows: list[tuple[float, float]]
            ) -> list[list]:
    """Spans whose start lies inside one of the (sorted) windows."""
    starts = [w[0] for w in windows]
    out = []
    for s in spans:
        i = bisect.bisect_right(starts, s[START]) - 1
        if i >= 0 and s[START] <= windows[i][1]:
            out.append(s)
    return out


def _self(spans: list[list], *names: str) -> float:
    return sum(s[SELF] for s in spans if s[NAME] in names)


def _dur(s: list) -> float:
    return s[END] - s[START]


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _stage_metrics(ctx: Any, own: list[list], out: dict) -> None:
    """The in-process stages: collect, train, tune, bundle load."""
    def phase(name: str) -> list[list]:
        return _within(own, sorted(ctx.phases.get(name, [])))

    collect = phase("collect")
    configs = [s for s in collect if s[NAME] == "dataset.config"]
    total = sum(_dur(s) for s in configs)
    calls: dict[str, int] = {}
    for s in collect:
        for k, n in s[CALLS].items():
            calls[k] = calls.get(k, 0) + n
    out["dataset.configs"] = len(configs)
    out["dataset.config_ms"] = 1e3 * total / len(configs) \
        if configs else 0.0
    out["dataset.alltoall_share"] = sum(
        _dur(s) for s in configs
        if s[ATTRS]["collective"] == "alltoall") / total if total else 0.0
    out["sim.evaluate_calls"] = calls.get("sim.evaluate", 0)
    out["sim.round_time_calls"] = calls.get("sim.round_time", 0)
    out["sim.round_time_ms"] = 1e3 * sum(s[FOLDED] for s in collect)

    train = phase("train")
    passes = max(1, len(ctx.phases.get("train", [])))
    ranks = [s for s in train if s[NAME] == "train.rank_features"]
    finals = [s for s in train if s[NAME] == "ml.forest_fit" and not any(
        r[THREAD] == s[THREAD] and r[START] <= s[START] <= r[END]
        for r in ranks)]
    trees = [s for s in train if s[NAME] == "ml.tree_fit"]
    out["train.rank_fit_s"] = sum(map(_dur, ranks)) / passes
    out["train.final_fit_s"] = sum(map(_dur, finals)) / passes
    out["ml.tree_fits"] = len(trees)
    out["ml.tree_fit_ms"] = 1e3 * statistics.fmean(map(_dur, trees)) \
        if trees else 0.0
    out["ml.pool_engaged"] = sum(
        1 for s in train
        if s[NAME] == "ml.parallel_map" and s[ATTRS]["pool"])

    tune = phase("tune")
    tables = [s for s in tune if s[NAME] == "tune.table"]
    out["tune.table_ms"] = 1e3 * statistics.fmean(map(_dur, tables)) \
        if tables else 0.0
    out["tune.predict_ms"] = 1e3 * _self(tune, "model.predict") \
        / len(tables) if tables else 0.0
    out["bundle.load_ms"] = _median_ms(
        [_dur(s) for s in phase("load") if s[NAME] == "bundle.load"])


def _first_predict_ms(spans: list[list], marks: list[float]) -> float:
    """Median duration of the first model call after each mark (boot,
    reload or fit): the lazy packed-tree build lands there."""
    predicts = sorted((s for s in spans if s[NAME] == "model.predict"),
                      key=lambda s: s[START])
    starts = [s[START] for s in predicts]
    firsts = [_dur(predicts[i]) for i in
              (bisect.bisect_left(starts, m) for m in marks)
              if i < len(predicts)]
    return _median_ms(firsts)


def _serve_metrics(ctx: Any, result: dict, own: list[list],
                   daemon: list[list], out: dict) -> list[str]:
    from serve import latency_metrics

    samples = result["samples"]
    windows = sorted(samples.windows)
    n = len(windows)
    rtt = sum(b - a for a, b in windows)
    spans = _within(own + daemon, windows)
    parses = [s for s in spans if s[NAME] == "protocol.parse"
              and s[ATTRS]["op"] == "select"]
    encodes = [s for s in spans if s[NAME] == "protocol.encode"]
    per = 1e3 / n
    out.update({
        "protocol.parse_ms": per * _self(spans, "protocol.parse"),
        "protocol.encode_ms": per * _self(spans, "protocol.encode",
                                          "protocol.to_dicts"),
        "protocol.request_bytes": statistics.fmean(
            s[ATTRS]["bytes"] for s in parses),
        "protocol.response_bytes": statistics.fmean(
            s[ATTRS]["bytes"] for s in encodes),
        "client.codec_ms": per * _self(spans, "client.codec"),
        "service.select_block_ms": per * _self(spans, *SERVICE),
    })
    # The model path: per timed request on online; per cold batch on
    # bulk (warm batches never reach it), through its abandoned work.
    cold = sorted(samples.cold_windows) or windows
    model = _within(own + daemon, cold)
    per_cold = 1e3 / len(cold)
    out.update({
        "guard.explain_block_ms": per_cold * _self(
            model, "guard.explain_block"),
        "guard.remap_ms": per_cold * sum(
            s[SELF] + s[FOLDED] for s in model
            if s[NAME] == "algo.estimate"),
        "inference.select_block_ms": per_cold * _self(
            model, "inference.select_block"),
        "model.predict_ms": per_cold * _self(model, "model.predict"),
        "model.rows": sum(s[ATTRS]["rows"] for s in model
                          if s[NAME] == "model.predict"),
    })
    # The dispatch span covers parse and the worker's service call;
    # what it does not cover beyond them is the daemon's own event-loop
    # work and the worker-pool hop.
    layers = _layer_self(spans)
    dispatch = [s for s in spans if s[NAME] == "daemon.dispatch"]
    layers["daemon"] = sum(s[SELF] for s in dispatch) - sum(
        t for layer, t in layers.items()
        if layer not in ("daemon", "protocol", "client")) - _self(
        spans, "protocol.to_dicts")
    residual = rtt - sum(layers.values())
    out["daemon.dispatch_ms"] = per * layers["daemon"]
    out["daemon.residual_ms"] = per * residual
    out["closure.e2e_ms"] = per * rtt
    out["closure.unattributed_frac"] = residual / rtt

    # Whole daemon life: boot / reload costs and the first model call
    # after each of them (lazy packed trees).
    reloads = [s for s in daemon if s[NAME] == "reload.build"]
    out["model.first_predict_ms"] = _first_predict_ms(
        daemon, [float("-inf")] + [s[END] for s in reloads])
    out["reload.build_ms"] = _median_ms([_dur(s) for s in reloads])
    loads = [_dur(s) for s in daemon if s[NAME] == "bundle.load"]
    if loads:
        out["bundle.load_ms"] = _median_ms(loads)

    c = result["counters"]
    queries = c.get("serve.queries", 0)
    out.update({
        "daemon.ping_ms": _median_ms(samples.extra["ping"]),
        "daemon.deadline_floor": c.get("serve.daemon.deadline_floor", 0),
        "daemon.overloaded": c.get("serve.daemon.overloaded", 0),
        "daemon.abandoned_ms": _median_ms(
            samples.extra.get("abandoned", [])),
        "service.dedup_ratio": c.get("serve.deduped", 0) / queries,
        "cache.hit_frac": c.get("serve.cache_hits", 0) / queries,
        "cache.misses": c.get("serve.cache_misses", 0),
        "guard.remapped": c.get("guard.remapped", 0),
        "guard.served_model": c.get("guard.served_model", 0),
        "guard.ood_fallback": c.get("guard.ood_fallback", 0),
    })
    traced = latency_metrics(samples)["p50_ms"]
    untraced = latency_metrics(result["reference"])["p50_ms"]
    out["obs.trace_overhead_frac"] = traced / untraced - 1.0
    return _closure_rows(layers, rtt, n, "request")


def _layer_self(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer (span-name prefix); folded simulator time
    counts to ``sim``."""
    layers: dict[str, float] = {}
    for s in spans:
        layer = s[NAME].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s[SELF]
        if s[FOLDED]:
            layers["sim"] = layers.get("sim", 0.0) + s[FOLDED]
    return layers


def _closure_rows(layers: dict[str, float], total: float, n: int,
                  unit: str) -> list[str]:
    """Human-readable self-time table: layer, ms per *unit*, share."""
    rows = [f"  layer self time per {unit} (closure over "
            f"{n} {unit}{'s' if n != 1 else ''}):"]
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        rows.append(f"    {layer:<12} {1e3 * t / n:12.4f} ms "
                    f"{100 * t / total:6.2f} %")
    left = total - sum(layers.values())
    rows.append(f"    {'unattributed':<12} {1e3 * left / n:12.4f} ms "
                f"{100 * left / total:6.2f} %")
    rows.append(f"    {'end-to-end':<12} {1e3 * total / n:12.4f} ms")
    return rows


def per_layer(ctx: Any, result: dict, names: Any) -> dict[str, float]:
    """Every metric in *names* (BENCHMARK.json's ``per_layer``)."""
    out = {name: 0.0 for name in names}
    own = ctx.log.spans
    _stage_metrics(ctx, own, out)
    daemon = tracing.load_spans(ctx.run_dir / "daemon_spans.json")
    rows = _serve_metrics(ctx, result, own, daemon, out)
    result["notes"]["closure"] = "\n" + "\n".join(rows)
    unknown = set(out) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    return out

