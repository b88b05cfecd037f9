"""Per-layer metrics of a traced run.

Spans come from :mod:`perfbench.launcher`; counters marked † in the
README come from the server's own ``stats``/``metrics`` wire kinds, read
before and after the timed phases.  ``_ms``/``_us``/``_s`` metrics are
mean busy time per call inside the timed phases.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from perfbench.measures import covered, median, self_times, tail
from perfbench.workloads import MUTATION_KINDS

#: spans that carry a client request id and lie on that request's path
REQUEST_SPANS = frozenset(
    {"net.decode", "net.queue_wait", "session.dispatch", "durability.append", "net.encode"}
)

UNITS = {
    "net.decode_us": "us",
    "net.encode_us": "us",
    "net.stats_response_bytes": "bytes",
    "net.queue_wait_p50_ms": "ms",
    "net.queue_wait_p99_ms": "ms",
    "net.batch_size": "count",
    "net.unattributed_p50_ms": "ms",
    "net.unattributed_share": "fraction",
    "net.overloaded": "count",
    "session.self_us": "us",
    "engine.journal_ms": "ms",
    "engine.evaluate_ms": "ms",
    "engine.stats_ms": "ms",
    "engine.add_paper_ms": "ms",
    "engine.withdraw_reviewer_ms": "ms",
    "engine.update_bids_us": "us",
    "engine.solve_s": "s",
    "engine.jra_cache_hit_ratio": "fraction",
    "cache.matrix_ms": "ms",
    "cache.cells_scored": "count",
    "cache.top_reviewers_us": "us",
    "jra.solve_ms": "ms",
    "jra.solves_per_query": "count",
    "cra.base_s": "s",
    "cra.refine_s": "s",
    "cra.sra_rounds": "count",
    "assignment.lap_ms": "ms",
    "assignment.lap_calls": "count",
    "core.assignment_score_ms": "ms",
    "core.lowest_coverage_ms": "ms",
    "core.dense_view_ms": "ms",
    "core.recompiles": "count",
    "core.delta_applies": "count",
    "durability.append_us": "us",
    "durability.sync_ms": "ms",
    "durability.fsyncs_per_mutation": "count",
    "durability.wal_bytes_per_mutation": "bytes",
    "durability.checkpoint_ms": "ms",
    "durability.checkpoints": "count",
    "durability.recover_ms": "ms",
    "server.cpu_ms_per_request": "ms",
    "setup.spawn_s": "s",
    "setup.tenants_s": "s",
    "setup.first_solve_s": "s",
    "trace.overhead_throughput_pct": "%",
    "trace.overhead_p50_pct": "%",
}

#: busy-time metrics: (metric, span name, scale to the metric's unit)
BUSY = (
    ("net.decode_us", "net.decode", 1e6),
    ("engine.journal_ms", "engine.journal", 1e3),
    ("engine.evaluate_ms", "engine.evaluate", 1e3),
    ("engine.stats_ms", "engine.stats", 1e3),
    ("engine.add_paper_ms", "engine.add_paper", 1e3),
    ("engine.withdraw_reviewer_ms", "engine.withdraw_reviewer", 1e3),
    ("engine.update_bids_us", "engine.update_bids", 1e6),
    ("engine.solve_s", "engine.solve", 1.0),
    ("cache.matrix_ms", "cache.matrix", 1e3),
    ("cache.top_reviewers_us", "cache.top_reviewers", 1e6),
    ("jra.solve_ms", "jra.solve", 1e3),
    ("cra.base_s", "cra.base", 1.0),
    ("cra.refine_s", "cra.refine", 1.0),
    ("assignment.lap_ms", "assignment.lap", 1e3),
    ("core.assignment_score_ms", "core.assignment_score", 1e3),
    ("core.lowest_coverage_ms", "core.lowest_coverage", 1e3),
    ("core.dense_view_ms", "core.dense_view", 1e3),
    ("durability.append_us", "durability.append", 1e6),
    ("durability.checkpoint_ms", "durability.checkpoint", 1e3),
)


def load_spans(path: Path) -> list[dict[str, Any]]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, thread, rid, extra = json.loads(line)
            spans.append(
                {"name": name, "start": start, "end": end, "parent": parent,
                 "thread": thread, "rid": rid, "extra": extra}
            )
    for span, self_time in zip(spans, self_times(spans)):
        span["self"] = self_time
    return spans


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _under(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def _delta(before: dict, after: dict, path: tuple[str, ...]) -> float:
    total = 0.0
    for tenant, stats in after["stats"].items():
        a, b = stats, before["stats"][tenant]
        for key in path:
            a, b = a[key], b[key]
        total += a - b
    return total


def per_layer(run, reference: dict[str, float]) -> dict:
    """The per-layer table of a finished traced ``run``; ``reference`` is
    the untraced run's end-to-end metrics, for the tracing overhead."""
    spans = run.spans
    records = [r for phase in run.phases for r in run.timed[phase.name]]
    lo = min(r["sent"] for r in records)
    hi = max(r["recv"] for r in records)
    inside = [s for s in spans if s["start"] >= lo and s["end"] <= hi]
    by_name: dict[str, list[dict]] = {}
    for span in inside:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    m: dict[str, float] = {}
    for metric, name, scale in BUSY:
        m[metric] = _mean(durations(name)) * scale
    # A batch boundary with nothing dirty is a no-op; time only real fsyncs.
    m["durability.sync_ms"] = 1e3 * _mean(
        [s["end"] - s["start"] for s in by_name.get("durability.sync", []) if s["extra"]]
    )
    m["net.encode_us"] = _mean(
        [s["end"] - s["start"] for s in by_name.get("net.encode", []) if s["parent"] is None]
    ) * 1e6
    stats_bytes = [r["bytes"] for r in records if r["request"]["kind"] == "stats"]
    m["net.stats_response_bytes"] = _mean(stats_bytes)
    waits = [1e3 * d for d in durations("net.queue_wait")]
    m["net.queue_wait_p50_ms"] = median(waits)
    m["net.queue_wait_p99_ms"] = tail(waits)[0]
    m["net.batch_size"] = _mean([s["extra"] for s in by_name.get("net.batch", [])])

    intervals: dict[Any, list[tuple[float, float]]] = {}
    for span in inside:
        if span["name"] in REQUEST_SPANS and span["rid"] is not None:
            intervals.setdefault(span["rid"], []).append((span["start"], span["end"]))
    unattributed, rtts = [], []
    for r in records:
        rtt = r["recv"] - r["sent"]
        rtts.append(rtt)
        unattributed.append(rtt - covered(intervals.get(r["request"]["id"], ()), r["sent"], r["recv"]))
    m["net.unattributed_p50_ms"] = 1e3 * median(unattributed)
    m["net.unattributed_share"] = sum(unattributed) / sum(rtts)

    before, after = run.before, run.after
    counters_before, counters_after = before["metrics"], after["metrics"]

    def counter(name):
        return float(counters_after.get(name, 0)) - float(counters_before.get(name, 0))

    m["net.overloaded"] = counter("service.net.overloaded")
    m["session.self_us"] = _mean([s["self"] for s in by_name.get("session.dispatch", [])]) * 1e6
    queries = _delta(before, after, ("engine", "journal_queries"))
    hits = _delta(before, after, ("engine", "journal_cache_hits"))
    m["engine.jra_cache_hit_ratio"] = hits / queries if queries else 0.0
    m["cache.cells_scored"] = _delta(before, after, ("engine", "cache", "scored_cells"))
    journal_solves = [s for s in by_name.get("jra.solve", []) if _under(spans, s, "engine.journal")]
    journals = len(by_name.get("engine.journal", []))
    m["jra.solves_per_query"] = len(journal_solves) / journals if journals else 0.0
    rounds = [s["extra"] for s in by_name.get("cra.refine", []) if s["extra"] is not None]
    m["cra.sra_rounds"] = _mean(rounds)
    m["assignment.lap_calls"] = float(len(by_name.get("assignment.lap", [])))
    m["core.recompiles"] = _delta(before, after, ("engine", "delta", "recompiles"))
    m["core.delta_applies"] = _delta(before, after, ("engine", "delta", "delta_applies"))
    journaled = sum(
        1 for r in records
        if r["request"]["kind"] in MUTATION_KINDS | {"solve"} and r["response"].get("ok")
    )
    m["durability.fsyncs_per_mutation"] = counter("durability.wal.fsyncs") / journaled if journaled else 0.0
    m["durability.wal_bytes_per_mutation"] = counter("durability.wal.bytes") / journaled if journaled else 0.0
    m["durability.checkpoints"] = float(len(by_name.get("durability.checkpoint", [])))
    m["durability.recover_ms"] = 1e3 * _mean(
        [s["end"] - s["start"] for s in run.recover_spans if s["name"] == "durability.recover"]
    )
    m["server.cpu_ms_per_request"] = 1e3 * run.server_cpu_per_request
    for key in ("spawn_s", "tenants_s", "first_solve_s"):
        m[f"setup.{key}"] = median(s[key] for s in run.setups)

    # Both runs' figures are at the reference speed (perfbench.speed).
    traced = run.metrics
    m["trace.overhead_throughput_pct"] = (
        100.0 * (reference["throughput_rps"] - traced["throughput_rps"]) / reference["throughput_rps"]
    )
    m["trace.overhead_p50_pct"] = 100.0 * (traced["p50_ms"] - reference["p50_ms"]) / reference["p50_ms"]
    return {name: {"value": m[name], "unit": UNITS[name]} for name in UNITS}
