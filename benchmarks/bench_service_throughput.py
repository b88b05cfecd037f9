"""Serving-subsystem benchmark: warm-cache throughput and incremental updates.

Not a figure of the paper — this bench measures the new
:mod:`repro.service` subsystem against the one-shot batch path it
replaces:

* **journal-query throughput**, cold (a fresh engine per query, as the
  batch CLI behaves) vs. warm (one resident engine whose score matrix,
  top-k indexes and journal answer memo persist across queries);
* **incremental-update latency**, applying a late paper / a reviewer
  withdrawal through the engine (one score column appended / one row
  dropped) vs. rebuilding the problem and the full score matrix from
  scratch.

Set ``REPRO_BENCH_SERVICE_PAPERS`` / ``REPRO_BENCH_SERVICE_REVIEWERS`` /
``REPRO_BENCH_SERVICE_QUERIES`` for larger sweeps.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from _shared import bench_seed, emit
from repro.core.entities import Paper
from repro.core.scoring import ScoringFunction
from repro.core.vectors import TopicVector
from repro.data.synthetic import make_problem
from repro.experiments.reporting import ExperimentTable
from repro.jra.bba import BranchAndBoundSolver
from repro.service.engine import AssignmentEngine


def _num_papers() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_PAPERS", "120"))


def _num_reviewers() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_REVIEWERS", "60"))


def _num_queries() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_QUERIES", "30"))


def _problem():
    return make_problem(
        num_papers=_num_papers(),
        num_reviewers=_num_reviewers(),
        num_topics=30,
        group_size=3,
        reviewer_workload=8,
        seed=bench_seed(),
    )


def _late_paper(problem, index: int) -> Paper:
    rng = np.random.default_rng(1000 + index)
    vector = rng.dirichlet(np.full(problem.num_topics, 0.5))
    return Paper(id=f"late-{index:04d}", vector=TopicVector(vector))


# ----------------------------------------------------------------------
# Journal-query throughput: cold vs. warm cache
# ----------------------------------------------------------------------
def run_journal_throughput() -> ExperimentTable:
    problem = _problem()
    paper_ids = [
        problem.paper_ids[i % problem.num_papers] for i in range(_num_queries())
    ]

    started = time.perf_counter()
    for paper_id in paper_ids:
        AssignmentEngine(problem).journal_query(paper_id)
    cold_elapsed = time.perf_counter() - started

    engine = AssignmentEngine(problem).warm()
    for paper_id in paper_ids:  # first pass populates the answer memo
        engine.journal_query(paper_id)
    started = time.perf_counter()
    for paper_id in paper_ids:
        engine.journal_query(paper_id)
    warm_elapsed = time.perf_counter() - started

    table = ExperimentTable(
        title=(
            f"Service throughput: {_num_queries()} journal queries, "
            f"P={problem.num_papers}, R={problem.num_reviewers}"
        ),
        columns=["mode", "total time (s)", "queries/s", "speedup"],
    )
    cold_rate = len(paper_ids) / max(cold_elapsed, 1e-9)
    warm_rate = len(paper_ids) / max(warm_elapsed, 1e-9)
    table.add_row("cold (fresh engine per query)", cold_elapsed, cold_rate, 1.0)
    table.add_row(
        "warm (resident engine)", warm_elapsed, warm_rate, cold_rate and warm_rate / cold_rate
    )
    return table


def test_journal_throughput_cold_vs_warm(benchmark):
    table = benchmark.pedantic(run_journal_throughput, rounds=1, iterations=1)
    emit(table, "service_journal_throughput.csv")
    cold_time, warm_time = table.column("total time (s)")
    # The resident engine must never be slower than cold-starting per query.
    assert warm_time <= cold_time


# ----------------------------------------------------------------------
# Incremental updates vs. full rebuilds
# ----------------------------------------------------------------------
def _full_rebuild_add(problem, paper):
    """The pre-service behaviour: rebuild everything, then staff the paper."""
    from repro.core.problem import JRAProblem, WGRAPProblem

    rebuilt = WGRAPProblem(
        papers=[*problem.papers, paper],
        reviewers=problem.reviewers,
        group_size=problem.group_size,
        reviewer_workload=problem.reviewer_workload + 1,
        conflicts=problem.conflicts,
        scoring=problem.scoring,
        validate_capacity=False,
    )
    rebuilt.pair_score_matrix()  # the full (R, P) scoring pass
    jra = JRAProblem(
        paper=paper,
        reviewers=rebuilt.reviewers,
        group_size=rebuilt.group_size,
        scoring=rebuilt.scoring,
    )
    BranchAndBoundSolver().solve(jra)
    return rebuilt


@contextlib.contextmanager
def _scored_cells():
    """Count every reviewer/paper cell the scoring kernel evaluates."""
    cells = [0]
    original = ScoringFunction.score_matrix

    def counting(self, reviewer_matrix, paper_matrix, *args, **kwargs):
        cells[0] += int(reviewer_matrix.shape[0]) * int(paper_matrix.shape[0])
        return original(self, reviewer_matrix, paper_matrix, *args, **kwargs)

    ScoringFunction.score_matrix = counting
    try:
        yield cells
    finally:
        ScoringFunction.score_matrix = original


def run_incremental_vs_rebuild() -> ExperimentTable:
    problem = _problem()
    engine = AssignmentEngine(problem)
    engine.solve("SDGA")
    engine.warm()
    rounds = 8

    # Engine path: one appended column per late paper.
    with _scored_cells() as cells:
        started = time.perf_counter()
        for index in range(rounds):
            engine.add_paper(_late_paper(engine.problem, index),
                             reviewer_workload=engine.problem.reviewer_workload + 1)
            engine.journal_query(f"late-{index:04d}")  # reads the new column
        incremental_add = (time.perf_counter() - started) / rounds
    incremental_cells = cells[0] / rounds

    # Batch path: full problem + full score matrix per late paper.
    base = _problem()
    started = time.perf_counter()
    for index in range(rounds):
        base = _full_rebuild_add(base, _late_paper(base, 100 + index))
    rebuild_add = (time.perf_counter() - started) / rounds
    rebuild_cells = base.num_reviewers * base.num_papers

    # Withdrawals: the engine drops a row with zero re-scoring.
    victims = list(engine.problem.reviewer_ids[: rounds // 2])
    with _scored_cells() as cells:
        started = time.perf_counter()
        for victim in victims:
            engine.withdraw_reviewer(victim)
        incremental_withdraw = (time.perf_counter() - started) / max(len(victims), 1)
    withdraw_cells = cells[0] / max(len(victims), 1)

    table = ExperimentTable(
        title="Incremental mutations vs. full rebuild (per operation)",
        columns=["operation", "latency (s)", "scored cells"],
    )
    table.add_row("add_paper (engine)", incremental_add, incremental_cells)
    table.add_row("add_paper (full rebuild)", rebuild_add, rebuild_cells)
    table.add_row("withdraw_reviewer (engine)", incremental_withdraw, withdraw_cells)
    return table


def test_incremental_updates_beat_full_rebuild(benchmark):
    table = benchmark.pedantic(run_incremental_vs_rebuild, rounds=1, iterations=1)
    emit(table, "service_incremental_vs_rebuild.csv")
    cells = dict(zip(table.column("operation"), table.column("scored cells")))
    # An incremental add scores one column (R cells); a rebuild scores R * P.
    assert cells["add_paper (engine)"] < cells["add_paper (full rebuild)"] / 10
    # A withdrawal scores nothing at all.
    assert cells["withdraw_reviewer (engine)"] == 0
