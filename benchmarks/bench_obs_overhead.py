"""Observability-overhead benchmark: the disabled tracer must be free.

The ``repro.obs`` span tracer is threaded through every solver hot loop
(greedy selection, local-search rounds, SDGA stages, SRA rounds, BBA
expansion) and through the engine/service layers.  Recording is off by
default, and the no-op fast path is guarded by a single attribute check
(``tracer.enabled``) that returns a shared no-op span.  This bench pins
that guarantee on the repo's headline workload — the dense
Greedy + LocalSearch pipeline at service scale (2000 reviewers × 1000
papers × 30 topics by default): with observability **disabled**, the
instrumented pipeline must run within ``REPRO_BENCH_OBS_MAX_OVERHEAD``
(default 2%) of an uninstrumented baseline.

The baseline is produced by swapping the module-level ``TRACER`` of every
instrumented module for an inert stub whose ``span()`` returns the shared
no-op span unconditionally — the closest runnable stand-in for "the
``with`` blocks are not there": it removes the enabled check and the
registry dispatch while keeping the context-manager protocol, which is
compiled into the functions and cannot be patched out.  Shipped and
baseline runs are interleaved and the minimum of ``REPRO_BENCH_OBS_REPEATS``
repeats is compared, so one scheduler hiccup cannot fail the gate.

Environment knobs
-----------------
``REPRO_BENCH_OBS_REVIEWERS`` / ``REPRO_BENCH_OBS_PAPERS`` /
``REPRO_BENCH_OBS_TOPICS`` / ``REPRO_BENCH_OBS_GROUP_SIZE``
    Instance size (defaults 2000 / 1000 / 30 / 3).  CI smoke runs scale
    these down.
``REPRO_BENCH_OBS_REPEATS``
    Interleaved repeats per variant (default 3; min-of-N is compared).
``REPRO_BENCH_OBS_MAX_OVERHEAD``
    Failure threshold as a fraction (default 0.02 = 2%).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from _shared import bench_seed, emit_bench_json
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.cra.greedy import GreedySolver
from repro.cra.local_search import LocalSearchRefiner
from repro.obs.trace import NOOP_SPAN, get_tracer

#: Every module holding a module-level ``TRACER`` used on a solver,
#: engine or parallel hot path.  (``repro.core.problem`` resolves the
#: tracer inline on its cold recompile branch only, so it is exempt.)
_INSTRUMENTED_MODULES = (
    "repro.cra.base",
    "repro.cra.greedy",
    "repro.cra.local_search",
    "repro.cra.sdga",
    "repro.cra.sra",
    "repro.jra.base",
    "repro.jra.bba",
    "repro.core.delta",
    "repro.service.cache",
    "repro.service.engine",
    "repro.service.session",
    "repro.parallel.sharding",
    "repro.parallel.portfolio",
)


class _InertTracer:
    """Stand-in for an uninstrumented build: ``span()`` is a constant."""

    enabled = False

    def span(self, name, trace_id=None, **attrs):
        return NOOP_SPAN


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _instance_shape() -> tuple[int, int, int, int]:
    return (
        _env_int("REPRO_BENCH_OBS_REVIEWERS", 2000),
        _env_int("REPRO_BENCH_OBS_PAPERS", 1000),
        _env_int("REPRO_BENCH_OBS_TOPICS", 30),
        _env_int("REPRO_BENCH_OBS_GROUP_SIZE", 3),
    )


def _repeats() -> int:
    return _env_int("REPRO_BENCH_OBS_REPEATS", 3)


def _max_overhead() -> float:
    return float(os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", "0.02"))


def _make_entities(
    num_reviewers: int, num_papers: int, num_topics: int
) -> tuple[list[Paper], list[Reviewer]]:
    rng = np.random.default_rng(bench_seed())
    reviewer_matrix = rng.random((num_reviewers, num_topics))
    paper_matrix = rng.random((num_papers, num_topics))
    reviewers = [
        Reviewer(id=f"reviewer-{index:05d}", vector=TopicVector(reviewer_matrix[index]))
        for index in range(num_reviewers)
    ]
    papers = [
        Paper(id=f"paper-{index:05d}", vector=TopicVector(paper_matrix[index]))
        for index in range(num_papers)
    ]
    return papers, reviewers


def _swap_tracers(tracer) -> dict[str, object]:
    import importlib

    previous: dict[str, object] = {}
    for name in _INSTRUMENTED_MODULES:
        module = importlib.import_module(name)
        previous[name] = module.TRACER
        module.TRACER = tracer
    return previous


def _restore_tracers(previous: dict[str, object]) -> None:
    import importlib

    for name, tracer in previous.items():
        importlib.import_module(name).TRACER = tracer


def _run_headline(
    papers: list[Paper], reviewers: list[Reviewer], group_size: int
) -> float:
    problem = WGRAPProblem(papers=papers, reviewers=reviewers, group_size=group_size)
    # Collect before and freeze collection during the timed region so a
    # generational sweep landing in one variant cannot skew the ratio.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        greedy = GreedySolver().solve(problem)
        refiner = LocalSearchRefiner(max_rounds=1, moves="replace")
        refiner.refine(problem, greedy.assignment)
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


def run_obs_overhead() -> dict:
    num_reviewers, num_papers, num_topics, group_size = _instance_shape()
    papers, reviewers = _make_entities(num_reviewers, num_papers, num_topics)

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = False  # the gate pins the *disabled* path
    inert = _InertTracer()

    shipped_times: list[float] = []
    baseline_times: list[float] = []
    try:
        # One untimed warm-up per variant pays import/JIT-cache costs.
        _run_headline(papers, reviewers, group_size)
        for _ in range(_repeats()):
            shipped_times.append(_run_headline(papers, reviewers, group_size))
            previous = _swap_tracers(inert)
            try:
                baseline_times.append(_run_headline(papers, reviewers, group_size))
            finally:
                _restore_tracers(previous)
    finally:
        tracer.enabled = was_enabled

    shipped = min(shipped_times)
    baseline = min(baseline_times)
    overhead = shipped / max(baseline, 1e-9) - 1.0
    return {
        "instance": {
            "reviewers": num_reviewers,
            "papers": num_papers,
            "topics": num_topics,
            "group_size": group_size,
            "seed": bench_seed(),
        },
        "repeats": _repeats(),
        "shipped_disabled_seconds": shipped,
        "baseline_inert_seconds": baseline,
        "shipped_samples": shipped_times,
        "baseline_samples": baseline_times,
        "overhead_fraction": overhead,
        "max_overhead_fraction": _max_overhead(),
    }


def test_disabled_observability_overhead(benchmark):
    verdict = benchmark.pedantic(run_obs_overhead, rounds=1, iterations=1)
    emit_bench_json(verdict, "BENCH_obs.json")
    print(
        f"disabled-path overhead: {verdict['overhead_fraction'] * 100.0:+.2f}% "
        f"(gate {verdict['max_overhead_fraction'] * 100.0:.0f}%)"
    )
    assert verdict["overhead_fraction"] < verdict["max_overhead_fraction"], verdict
