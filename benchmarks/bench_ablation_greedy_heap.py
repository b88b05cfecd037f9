"""Ablation: incremental (dense argmax) greedy vs. naive re-scan greedy.

The pair-greedy baseline can either re-evaluate every feasible pair at each
iteration (the textbook description) or maintain the current gains
incrementally — per-paper column maxima over the dense gain matrix,
refreshing one column per assignment.  Both make the same true-argmax
selection, but the incremental version does asymptotically less gain
work.  The naive re-scan is the object-layer oracle of
``tests/conformance/oracles.py``; the bench measures both and checks the
agreement bitwise.
"""

from __future__ import annotations

import time

from _shared import emit, experiment_config
from repro.cra.greedy import GreedySolver
from repro.experiments.cra_quality import build_dataset_problem
from repro.experiments.reporting import ExperimentTable
from tests.conformance.oracles import naive_greedy


def _problem():
    return build_dataset_problem("DB08", group_size=3, config=experiment_config())


def test_ablation_greedy_lazy_heap(benchmark):
    problem = _problem()

    lazy_result = benchmark.pedantic(
        lambda: GreedySolver().solve(problem), rounds=3, iterations=1
    )
    naive_started = time.perf_counter()
    naive_assignment, naive_stats = naive_greedy(problem)
    naive_elapsed = time.perf_counter() - naive_started
    naive_score = problem.assignment_score(naive_assignment)

    table = ExperimentTable(
        title="Ablation: greedy gain evaluation strategy",
        columns=["strategy", "coverage score", "time (s)", "gain evaluations"],
    )
    # Report both strategies in the same unit (evaluated gain cells):
    # one column refresh evaluates R reviewer gains.
    lazy_cells = lazy_result.stats["column_refreshes"] * problem.num_reviewers
    table.add_row("lazy (dense argmax)", lazy_result.score, lazy_result.elapsed_seconds,
                  lazy_cells)
    table.add_row("naive re-scan (object oracle)", naive_score, naive_elapsed,
                  naive_stats["gain_evaluations"])
    emit(table, "ablation_greedy_heap.csv")

    # Same answer, and the lazy version does far less gain work.
    assert lazy_result.assignment == naive_assignment
    assert lazy_result.score == naive_score
    assert lazy_cells < naive_stats["gain_evaluations"]
