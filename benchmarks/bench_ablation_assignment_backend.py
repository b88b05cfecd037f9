"""Ablation: Hungarian vs. min-cost-flow backend for the SDGA stages.

Both backends of ``solve_capacitated_assignment`` solve every Stage-WGRAP
step exactly, so the staged assignment is identical; what differs is the
running time of the per-stage assignment.  SDGA itself always uses the
Hungarian backend, so the bench runs SDGA's stages directly — the same
stage inputs, then one backend — and checks the staged result against
the production solver.
"""

from __future__ import annotations

import time

from _shared import emit, experiment_config
from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.experiments.cra_quality import build_dataset_problem
from repro.experiments.reporting import ExperimentTable


def _staged_sdga(problem, backend: str) -> Assignment:
    """SDGA's ``delta_p`` stages with the given assignment backend."""
    dense = problem.dense_view()
    assignment = Assignment()
    for _ in range(problem.group_size):
        gains, forbidden, capacities = dense.stage_inputs(assignment)
        result = solve_capacitated_assignment(
            gains, capacities, forbidden=forbidden, backend=backend
        )
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            assignment.add(problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx])
    return assignment


def test_ablation_stage_assignment_backend(benchmark):
    # A deliberately smaller instance: the flow backend is pure Python and
    # quadratic in the number of pairs.
    config = experiment_config()
    problem = build_dataset_problem("DM08", group_size=3, config=config)

    hungarian_started = time.perf_counter()
    hungarian = benchmark.pedantic(
        lambda: _staged_sdga(problem, "hungarian"), rounds=3, iterations=1
    )
    hungarian_elapsed = (time.perf_counter() - hungarian_started) / 3
    flow_started = time.perf_counter()
    flow = _staged_sdga(problem, "flow")
    flow_elapsed = time.perf_counter() - flow_started

    hungarian_score = problem.assignment_score(hungarian)
    flow_score = problem.assignment_score(flow)
    table = ExperimentTable(
        title="Ablation: SDGA stage-assignment backend",
        columns=["backend", "coverage score", "time (s)"],
    )
    table.add_row("hungarian", hungarian_score, hungarian_elapsed)
    table.add_row("min-cost flow", flow_score, flow_elapsed)
    emit(table, "ablation_assignment_backend.csv")

    assert hungarian == StageDeepeningGreedySolver().solve(problem).assignment
    assert abs(hungarian_score - flow_score) < 1e-9
