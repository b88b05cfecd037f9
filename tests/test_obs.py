"""Tests for :mod:`repro.obs` — metrics math, span tracing, name contract.

Three layers of guarantees:

* the fixed-bucket histogram's arithmetic (boundary placement,
  interpolated percentiles, shard merges) is pinned with exact values;
* the tracer builds correct trees under nesting, exceptions and
  concurrency — including through the real portfolio racer;
* every span opened and metric registered anywhere in the source tree
  matches the contract of :mod:`repro.obs.names` (so the docs tables,
  checked by ``tests/test_docs.py``, cannot silently rot).
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

from repro.data.synthetic import make_problem
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.names import METRIC_NAMES, SPAN_NAMES, matches_name
from repro.obs.trace import NOOP_SPAN, Tracer, get_tracer

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def tracer():
    """A private enabled tracer (never the shared process-global one)."""
    tracer = Tracer(capacity=8)
    tracer.enabled = True
    return tracer


class TestHistogramMath:
    def test_bounds_must_be_non_empty_and_ascending(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_upper_bounds_are_inclusive(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 3.0))
        histogram.observe(1.0)   # exactly on a bound -> that bucket
        histogram.observe(1.5)
        histogram.observe(3.0)
        buckets = histogram.snapshot()["buckets"]
        assert buckets == {"1": 1, "2": 1, "3": 1, "+Inf": 0}

    def test_overflow_bucket_catches_values_above_the_last_bound(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(5.0)
        assert histogram.snapshot()["buckets"] == {"1": 0, "+Inf": 1}

    def test_percentiles_interpolate_linearly_within_the_bucket(self):
        histogram = Histogram("h", buckets=(10.0,))
        histogram.observe(1.0)
        histogram.observe(9.0)
        # rank(p50) = 1 of 2 in the [0, 10] bucket -> 0 + (1/2) * 10.
        assert histogram.percentile(50.0) == pytest.approx(5.0)

    def test_percentiles_clamp_to_the_observed_range(self):
        histogram = Histogram("h", buckets=(10.0,))
        histogram.observe(1.0)
        histogram.observe(9.0)
        # Raw interpolation says 9.9; nothing above 9.0 was ever seen.
        assert histogram.percentile(99.0) == pytest.approx(9.0)
        assert histogram.percentile(1.0) == pytest.approx(1.0)

    def test_percentile_of_the_overflow_bucket_is_the_exact_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.percentile(99.0) == 7.0

    def test_empty_histogram_reports_zero(self):
        histogram = Histogram("h")
        assert histogram.percentile(50.0) == 0.0
        snap = histogram.snapshot()
        assert snap["count"] == 0
        assert "p50" not in snap

    def test_percentile_rejects_out_of_range_q(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_merge_of_shard_local_histograms(self):
        left = Histogram("left", buckets=(1.0, 10.0))
        right = Histogram("right", buckets=(1.0, 10.0))
        for value in (0.5, 2.0):
            left.observe(value)
        for value in (4.0, 20.0):
            right.observe(value)
        left.merge_from(right)
        snap = left.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(26.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 20.0
        assert snap["buckets"] == {"1": 1, "10": 2, "+Inf": 1}
        # p99 ranks into the overflow bucket -> the merged exact max.
        assert left.percentile(99.0) == 20.0

    def test_merge_rejects_mismatched_bounds(self):
        left = Histogram("left", buckets=(1.0, 10.0))
        right = Histogram("right", buckets=(1.0, 5.0))
        with pytest.raises(ValueError):
            left.merge_from(right)

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestCountersAndRegistry:
    def test_counter_accepts_negative_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(-1)
        assert counter.value == 0

    def test_gauge_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.inc(0.5)
        assert gauge.value == 4.0

    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.get("a") is registry.counter("a")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["p99"] == pytest.approx(0.5)

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("service.requests", "requests dispatched").inc(3)
        histogram = registry.histogram("req.seconds", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(20.0)
        text = registry.to_prometheus()
        assert "# TYPE service_requests counter" in text
        assert "service_requests 3" in text
        assert "# HELP service_requests requests dispatched" in text
        assert "# TYPE req_seconds histogram" in text
        # Bucket counts are cumulative in the exposition format.
        assert 'req_seconds_bucket{le="1"} 1' in text
        assert 'req_seconds_bucket{le="10"} 1' in text
        assert 'req_seconds_bucket{le="+Inf"} 2' in text
        assert "req_seconds_sum 20.5" in text
        assert "req_seconds_count 2" in text

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestTracer:
    def test_disabled_tracer_hands_out_the_shared_noop_span(self):
        tracer = Tracer()
        assert tracer.enabled is False
        span = tracer.span("anything", attr=1)
        assert span is NOOP_SPAN
        with span as entered:
            entered.set(more=2)  # no-ops, records nothing
        assert tracer.last_trace() is None

    def test_nesting_builds_a_tree(self, tracer):
        with tracer.span("root", depth=0):
            with tracer.span("child-a") as a:
                a.set(n=1)
            with tracer.span("child-b"):
                with tracer.span("grandchild"):
                    pass
        trace_id, root = tracer.last_trace()
        assert root.name == "root"
        assert root.trace_id == trace_id
        assert [child.name for child in root.children] == ["child-a", "child-b"]
        assert root.children[1].children[0].name == "grandchild"
        assert root.children[0].attrs == {"n": 1}
        assert root.seconds >= root.children[0].seconds

    def test_to_dict_and_format_tree(self, tracer):
        with tracer.span("root"):
            with tracer.span("child", k="v"):
                pass
        _, root = tracer.last_trace()
        node = root.to_dict()
        assert node["name"] == "root"
        assert node["children"][0]["attrs"] == {"k": "v"}
        rendered = root.format_tree()
        assert "root" in rendered and "└─ child" in rendered and "k=v" in rendered

    def test_exceptions_are_recorded_and_propagate(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        _, root = tracer.last_trace()
        assert root.attrs["error"] == "RuntimeError"
        assert root.children[0].attrs["error"] == "RuntimeError"

    def test_leaked_children_are_unwound_defensively(self, tracer):
        root = tracer.span("root")
        root.__enter__()
        tracer.span("leaked").__enter__()  # never exited
        root.__exit__(None, None, None)
        assert tracer._stack() == []
        assert tracer.last_trace()[1].name == "root"

    def test_ring_buffer_trims_to_capacity(self, tracer):
        for index in range(20):
            with tracer.span(f"root-{index}"):
                pass
        ids = tracer.trace_ids()
        assert len(ids) == tracer.capacity == 8
        # The survivors are the most recent traces, oldest first.
        assert tracer.get_trace(ids[-1]).name == "root-19"
        assert tracer.get_trace(ids[0]).name == "root-12"

    def test_explicit_trace_ids_are_honoured(self, tracer):
        with tracer.span("root", trace_id="t-custom"):
            pass
        assert tracer.get_trace("t-custom").name == "root"

    def test_thread_safety_under_concurrent_nested_traces(self):
        tracer = Tracer(capacity=1024)
        tracer.enabled = True
        num_threads, traces_per_thread = 8, 25
        errors: list[str] = []

        def worker(worker_id: int) -> None:
            for index in range(traces_per_thread):
                with tracer.span(f"root-{worker_id}"):
                    with tracer.span("inner"):
                        with tracer.span("leaf"):
                            pass
                    with tracer.span("sibling"):
                        pass
                if tracer._stack():
                    errors.append(f"worker {worker_id}: stack not empty at {index}")

        threads = [
            threading.Thread(target=worker, args=(worker_id,))
            for worker_id in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        ids = tracer.trace_ids()
        assert len(ids) == num_threads * traces_per_thread
        for trace_id in ids:
            root = tracer.get_trace(trace_id)
            # Every tree is intact: no cross-thread children leaked in.
            assert [child.name for child in root.children] == ["inner", "sibling"]
            assert [leaf.name for leaf in root.children[0].children] == ["leaf"]

    def test_tracing_through_concurrent_portfolio_races(self):
        from repro.parallel.portfolio import run_portfolio

        problem_a = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=1)
        problem_b = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=2)
        tracer = get_tracer()
        tracer.clear()
        tracer.enabled = True
        failures: list[BaseException] = []

        def race(problem) -> None:
            try:
                run_portfolio(problem, solvers=("Greedy", "SDGA"))
            except BaseException as exc:  # surfaced after join
                failures.append(exc)

        try:
            threads = [
                threading.Thread(target=race, args=(problem,))
                for problem in (problem_a, problem_b)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            roots = [tracer.get_trace(trace_id) for trace_id in tracer.trace_ids()]
            races = [root for root in roots if root.name == "portfolio.race"]
            assert len(races) == 2
            for race_root in races:
                solver_spans = [
                    child for child in race_root.children
                    if child.name.startswith("solver.")
                ]
                assert len(solver_spans) == 2
                assert race_root.attrs["best"]
        finally:
            tracer.enabled = False
            tracer.clear()


class TestNameContract:
    def test_matches_name_examples(self):
        assert matches_name("engine.solves")
        assert matches_name("service.request.solve.seconds")
        assert matches_name("solver.SDGA-SRA.seconds")
        assert not matches_name("engine.unheard_of")
        assert matches_name("request.journal", kind="span")
        assert matches_name("sdga.stage", kind="span")
        assert not matches_name("nonexistent.span", kind="span")

    def test_every_span_call_site_matches_the_contract(self):
        """Grep the source tree: every ``.span("...")`` literal is registered."""
        call = re.compile(r"\.span\(\s*\n?\s*f?\"([^\"]+)\"")
        found: dict[str, str] = {}
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.parent.name == "obs":
                continue  # the contract module documents the pattern itself
            for match in call.finditer(path.read_text(encoding="utf-8")):
                literal = match.group(1)
                # f-string holes stand for one dynamic path segment.
                name = re.sub(r"\{[^}]*\}", "x", literal)
                found[name] = str(path)
        assert found, "no span call sites found — did the grep pattern rot?"
        unregistered = {
            name: where
            for name, where in found.items()
            if not matches_name(name, kind="span")
        }
        assert not unregistered, (
            f"span names missing from repro.obs.names.SPAN_NAMES: {unregistered}"
        )

    def test_span_contract_has_no_dead_entries(self):
        """Every SPAN_NAMES entry corresponds to a real call site."""
        source = "\n".join(
            path.read_text(encoding="utf-8") for path in sorted(SRC_ROOT.rglob("*.py"))
        )
        for pattern in SPAN_NAMES:
            prefix = pattern.split("<")[0].rstrip(".")
            assert f'"{prefix}' in source or f'f"{prefix}' in source, (
                f"SPAN_NAMES entry {pattern!r} has no call site in src/"
            )

    def test_every_registered_metric_matches_the_contract(self):
        """Exercise the engine + session, then audit every live metric name."""
        from repro.service.engine import AssignmentEngine
        from repro.service.requests import request_from_dict
        from repro.service.session import EngineSession

        problem = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=3)
        engine = AssignmentEngine(problem)
        session = EngineSession(engine)
        for payload in (
            {"kind": "solve", "solver": "Greedy"},
            {"kind": "portfolio", "solvers": ["Greedy", "SDGA"]},
            {"kind": "journal", "paper_id": problem.papers[0].id},
            {"kind": "evaluate"},
            {"kind": "withdraw_reviewer", "reviewer_id": "missing"},  # fails
            {"kind": "metrics"},
            {"kind": "stats"},
        ):
            session.dispatch(request_from_dict(payload))
        names = list(engine.metrics_snapshot())
        offenders = [name for name in names if not matches_name(name)]
        assert not offenders, (
            f"metric names missing from repro.obs.names.METRIC_NAMES: {offenders}"
        )
        # The audit saw both registries and the absorbed gauges.
        assert "solver.Greedy.seconds" in names
        assert any(name.startswith("cache.") for name in names)
        assert any(name.startswith("delta.") for name in names)
        assert "service.errors.unknown_id" in names


class TestEngineMetricsIntegration:
    def test_stats_keeps_flat_counters_and_the_metrics_kind_serves_the_registry(self):
        from repro.service.engine import AssignmentEngine
        from repro.service.requests import request_from_dict
        from repro.service.session import EngineSession

        problem = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=4)
        engine = AssignmentEngine(problem)
        engine.solve(solver="Greedy")
        engine.journal_query(problem.papers[0].id)
        stats = engine.stats()
        assert stats["solves"] == 1
        assert stats["journal_queries"] == 1
        # The percentile snapshot is the ``metrics`` kind's job, not stats'.
        assert "metrics" not in stats
        response = EngineSession(engine).dispatch(request_from_dict({"kind": "metrics"}))
        metrics = response.payload["metrics"]
        assert metrics["engine.solves"] == 1
        assert metrics["engine.solve.seconds"]["count"] == 1
        assert metrics["engine.journal.seconds"]["count"] == 1
        assert "p99" in metrics["engine.solve.seconds"]

    def test_engine_registries_are_isolated(self):
        from repro.service.engine import AssignmentEngine

        problem = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=5)
        first = AssignmentEngine(problem)
        second = AssignmentEngine(
            make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=6)
        )
        first.solve(solver="Greedy")
        assert first.metrics_registry.counter("engine.solves").value == 1
        assert second.metrics_registry.counter("engine.solves").value == 0

    def test_journal_answer_elapsed_feeds_the_histogram(self):
        from repro.service.engine import AssignmentEngine

        problem = make_problem(num_reviewers=10, num_papers=5, num_topics=4, seed=7)
        engine = AssignmentEngine(problem)
        answer = engine.journal_query(problem.papers[0].id)
        snap = engine.metrics_registry.get("engine.journal.seconds").snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(answer.elapsed_seconds, rel=1e-6)


class TestStoreObservability:
    """``store.*`` spans and gauges of the pluggable storage layer."""

    def _store_engine(self, tmp_path):
        from repro.service.engine import AssignmentEngine
        from repro.store import SqliteProblemStore

        problem = make_problem(
            num_reviewers=12, num_papers=6, num_topics=4, reviewer_workload=4, seed=8
        )
        store = SqliteProblemStore.create(
            tmp_path / "obs.db", problem, blocks=True, block_cols=2
        )
        return store, AssignmentEngine.from_store(store)

    def test_store_spans_are_emitted_and_registered(self, tmp_path):
        from repro.core.entities import Paper

        import numpy as np

        tracer = get_tracer()
        previously = tracer.enabled
        tracer.enabled = True
        try:
            store, engine = self._store_engine(tmp_path)
            engine.solve("Greedy")
            engine.add_paper(
                Paper(id="obs-late", vector=np.full(4, 0.25, dtype=np.float64))
            )
            names = set()
            for trace_id in tracer.trace_ids():
                stack = [tracer.get_trace(trace_id)]
                while stack:
                    node = stack.pop()
                    names.add(node.name)
                    stack.extend(node.children)
            store.close()
        finally:
            tracer.enabled = previously
        for expected in ("store.open", "store.compile", "store.index_update"):
            assert expected in names, f"missing span {expected!r} in {sorted(names)}"
            assert matches_name(expected, kind="span")
        assert any(name == "store.block_io" for name in names)

    def test_store_gauges_are_absorbed_into_metrics(self, tmp_path):
        store, engine = self._store_engine(tmp_path)
        try:
            engine.solve("Greedy")
            names = list(engine.metrics_snapshot())
            store_gauges = [name for name in names if name.startswith("store.")]
            assert "store.reviewer_rows" in store_gauges
            assert "store.index_rows" in store_gauges
            assert any(name.startswith("store.blocks_") for name in store_gauges)
            offenders = [name for name in store_gauges if not matches_name(name)]
            assert not offenders, f"unregistered store metrics: {offenders}"
        finally:
            store.close()

    def test_stats_exposes_the_store_block(self, tmp_path):
        store, engine = self._store_engine(tmp_path)
        try:
            stats = engine.stats()
            assert stats["store"]["kind"] == "sqlite"
            assert stats["store"]["reviewer_rows"] == 12
        finally:
            store.close()

    def test_memory_backend_also_reports(self):
        from repro.service.engine import AssignmentEngine

        problem = make_problem(num_reviewers=8, num_papers=4, num_topics=4, seed=9)
        engine = AssignmentEngine(problem)
        stats = engine.stats()
        assert stats["store"]["kind"] == "memory"
