"""Incremental churn benchmark: delta maintenance vs full recompile.

Not a figure of the paper — this bench pins the acceptance bar of the
``repro.core.delta`` layer on the ROADMAP's serving workload: a resident
:class:`~repro.service.engine.AssignmentEngine` fields a stream of
interleaved **add-paper / withdraw-reviewer / journal-query / solve**
requests (the churn-serving hot path: mutations arrive continuously,
online JRA queries read the maintained state, and a full conference
re-solve runs periodically).  The same request stream is replayed twice:

* **delta path** — the engine as shipped: every mutation is absorbed by
  the delta layer (one appended pair-score column per late paper, one
  dropped row per withdrawal, delta-derived dense views), journal queries
  read the maintained matrix, and full solves run the pruned candidate
  generator;
* **full-recompile baseline** — identical engine code, but every cache is
  invalidated before each request (``problem.invalidate_caches()``; the
  engine's score cache reads the problem's matrix and holds no copy of
  its own), so each mutate->resolve pays the historical
  ``O(R * P * T)`` re-score and ``O(R * P)`` recompile.

Both replays must produce **bitwise-identical outputs**: every solve's
assignment and score, every journal answer's groups and shortlist, and
every mutation's added/removed pairs.  The delta path must be at least
``REPRO_BENCH_CHURN_MIN_SPEEDUP`` (default 10) times faster end to end.

Results feed ``benchmarks/results/BENCH_churn.json`` and the repo-root
``BENCH.md`` trajectory.

Environment knobs
-----------------
``REPRO_BENCH_CHURN_REVIEWERS`` / ``REPRO_BENCH_CHURN_PAPERS`` /
``REPRO_BENCH_CHURN_TOPICS`` / ``REPRO_BENCH_CHURN_GROUP_SIZE``
    Seed instance size (defaults 4000 / 1000 / 30 / 3 — a reviewer-heavy
    serving pool, scaled down from the ROADMAP's 50k-reviewer ambition
    like every bench in this repo; raise them to taste).
``REPRO_BENCH_CHURN_EVENTS``
    Number of interleaved requests after the initial solve (default 500,
    the ROADMAP workload).
``REPRO_BENCH_CHURN_SOLVE_EVERY``
    A full conference re-solve is injected every this many events
    (default 250; the remaining stream is ~40% add-paper, ~15%
    withdraw-reviewer, ~45% journal queries).
``REPRO_BENCH_CHURN_POOL``
    Staffing/journal candidate-pool width (default 12).
``REPRO_BENCH_CHURN_MIN_SPEEDUP``
    Asserted end-to-end speedup (default 10.0; CI relaxes this to a smoke
    threshold on a scaled-down instance while keeping the bitwise
    assertions strict).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from _shared import bench_seed, emit, emit_bench_json
from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.experiments.reporting import ExperimentTable
from repro.service.engine import AssignmentEngine


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _instance_shape() -> tuple[int, int, int, int]:
    return (
        _env_int("REPRO_BENCH_CHURN_REVIEWERS", 4000),
        _env_int("REPRO_BENCH_CHURN_PAPERS", 1000),
        _env_int("REPRO_BENCH_CHURN_TOPICS", 30),
        _env_int("REPRO_BENCH_CHURN_GROUP_SIZE", 3),
    )


def _num_events() -> int:
    return _env_int("REPRO_BENCH_CHURN_EVENTS", 500)


def _solve_every() -> int:
    return max(1, _env_int("REPRO_BENCH_CHURN_SOLVE_EVERY", 250))


def _pool_size() -> int:
    return _env_int("REPRO_BENCH_CHURN_POOL", 12)


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_CHURN_MIN_SPEEDUP", "10.0"))


def _make_workload():
    """Entities, late papers and a deterministic interleaved event stream."""
    num_reviewers, num_papers, num_topics, group_size = _instance_shape()
    events = _num_events()
    solve_every = _solve_every()
    rng = np.random.default_rng(bench_seed())
    reviewers = [
        Reviewer(id=f"reviewer-{i:05d}", vector=TopicVector(rng.random(num_topics)))
        for i in range(num_reviewers)
    ]
    papers = [
        Paper(id=f"paper-{i:05d}", vector=TopicVector(rng.random(num_topics)))
        for i in range(num_papers)
    ]
    late_papers = [
        Paper(id=f"late-{i:05d}", vector=TopicVector(rng.random(num_topics)))
        for i in range(events)
    ]
    # A mutation-heavy serving mix: ~40% late submissions, ~15%
    # withdrawals, ~45% online journal queries, plus a periodic full
    # re-solve.  Withdrawals and journal targets are encoded as a fraction
    # of the *current* pool so both replays deterministically pick the
    # same entity.
    stream: list[tuple] = []
    add_cursor = 0
    for index in range(events):
        if (index + 1) % solve_every == 0:
            stream.append(("solve",))
            continue
        draw = rng.random()
        if draw < 0.40:
            stream.append(("add", add_cursor))
            add_cursor += 1
        elif draw < 0.55:
            stream.append(("withdraw", float(rng.random())))
        else:
            stream.append(("journal", float(rng.random())))
    # Twice the minimal feasible workload leaves room for the adds and
    # withdrawals without ever hitting the capacity wall.
    workload = 2 * max(1, math.ceil(num_papers * group_size / num_reviewers))
    return papers, reviewers, late_papers, stream, group_size, workload


def _journal_output(answer) -> tuple:
    return (
        "journal",
        answer.paper_id,
        tuple((group.reviewer_ids, group.score) for group in answer.groups),
        answer.shortlist,
    )


def _replay(
    papers, reviewers, late_papers, stream, group_size, workload, invalidate: bool
):
    """Run the request stream; returns (elapsed, outputs, engine)."""
    pool = _pool_size()
    problem = WGRAPProblem(
        papers=papers,
        reviewers=reviewers,
        group_size=group_size,
        reviewer_workload=workload,
    )
    engine = AssignmentEngine(problem)
    outputs: list[tuple] = []
    # The seed solve is setup shared by both pipelines, not part of the
    # churn stream; it is timed separately.
    seed_started = time.perf_counter()
    result = engine.solve("Greedy")
    seed_elapsed = time.perf_counter() - seed_started
    outputs.append(("solve", result.score, tuple(sorted(result.assignment.pairs()))))
    started = time.perf_counter()
    for event in stream:
        if invalidate:
            engine.problem.invalidate_caches()
        if event[0] == "solve":
            result = engine.solve("Greedy")
            outputs.append(
                ("solve", result.score, tuple(sorted(result.assignment.pairs())))
            )
        elif event[0] == "add":
            delta = engine.add_paper(late_papers[event[1]], pool_size=pool)
            outputs.append(("add", delta.added_pairs))
        elif event[0] == "withdraw":
            victim = engine.problem.reviewer_ids[
                int(event[1] * engine.problem.num_reviewers)
            ]
            delta = engine.withdraw_reviewer(victim)
            outputs.append(("withdraw", delta.added_pairs, delta.removed_pairs))
        else:
            paper_id = engine.problem.paper_ids[
                int(event[1] * engine.problem.num_papers)
            ]
            answer = engine.journal_query(paper_id, pool_size=pool)
            outputs.append(_journal_output(answer))
    elapsed = time.perf_counter() - started
    return elapsed, seed_elapsed, outputs, engine


def run_incremental_churn() -> tuple[ExperimentTable, dict]:
    papers, reviewers, late_papers, stream, group_size, workload = _make_workload()
    num_reviewers, num_papers, num_topics, _ = _instance_shape()
    counts = {
        kind: sum(1 for event in stream if event[0] == kind)
        for kind in ("add", "withdraw", "journal", "solve")
    }

    delta_elapsed, delta_seed, delta_outputs, delta_engine = _replay(
        papers, reviewers, late_papers, stream, group_size, workload, invalidate=False
    )
    baseline_elapsed, baseline_seed, baseline_outputs, _ = _replay(
        papers, reviewers, late_papers, stream, group_size, workload, invalidate=True
    )

    identical = delta_outputs == baseline_outputs
    speedup = baseline_elapsed / max(delta_elapsed, 1e-9)
    view_stats = delta_engine.problem.view_stats.as_dict()
    total_events = len(stream)

    table = ExperimentTable(
        title=(
            f"Incremental churn, R={num_reviewers}, P={num_papers}, "
            f"T={num_topics}, delta_p={group_size}, {total_events} events "
            f"({counts['add']} add / {counts['withdraw']} withdraw / "
            f"{counts['journal']} journal / {counts['solve']} solve)"
        ),
        columns=["pipeline", "total (s)", "per event (ms)", "speedup"],
    )
    table.add_row(
        "full recompile (baseline)",
        baseline_elapsed,
        1000.0 * baseline_elapsed / max(total_events, 1),
        1.0,
    )
    table.add_row(
        "delta maintenance + pruning",
        delta_elapsed,
        1000.0 * delta_elapsed / max(total_events, 1),
        speedup,
    )

    verdict = {
        "instance": {
            "reviewers": num_reviewers,
            "papers": num_papers,
            "topics": num_topics,
            "group_size": group_size,
            "reviewer_workload": workload,
            "events": total_events,
            "event_mix": counts,
            "pool_size": _pool_size(),
            "seed": bench_seed(),
        },
        "baseline_seconds": baseline_elapsed,
        "baseline_seed_solve_seconds": baseline_seed,
        "delta_seconds": delta_elapsed,
        "delta_seed_solve_seconds": delta_seed,
        "speedup": speedup,
        "min_speedup": _min_speedup(),
        "outputs_bitwise_identical": identical,
        "view_stats": view_stats,
        "cache_stats": delta_engine.cache.stats.as_dict(),
    }
    return table, verdict


def test_incremental_churn_speedup(benchmark):
    table, verdict = benchmark.pedantic(run_incremental_churn, rounds=1, iterations=1)
    emit(table, "incremental_churn.csv")
    emit_bench_json(verdict, "BENCH_churn.json")
    assert verdict["outputs_bitwise_identical"], (
        "the delta-maintained engine diverged from the full-recompile baseline"
    )
    stats = verdict["view_stats"]
    assert stats["delta_applies"] > 0, stats
    assert verdict["speedup"] >= verdict["min_speedup"], verdict
