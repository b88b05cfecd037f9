"""Stage Deepening Greedy Algorithm (SDGA) — Section 4.2, Algorithm 2.

SDGA splits the conference assignment into exactly ``delta_p`` stages.  At
every stage, *each paper receives exactly one additional reviewer* and each
reviewer takes at most ``ceil(delta_r / delta_p)`` new papers; the stage is
therefore a capacitated linear-assignment problem (Stage-WGRAP,
Definition 9) whose profit for pair ``(r, p)`` is the marginal coverage
gain of adding ``r`` to the group that ``p`` accumulated in earlier stages.

Solving every stage optimally yields the paper's approximation guarantee:
``1 - (1 - 1/delta_p)^delta_p >= 1 - 1/e`` when ``delta_p`` divides
``delta_r`` (Theorem 1) and at least ``1/2`` otherwise (Theorem 2) — a
substantial improvement over the 1/3 guarantee of the pair-greedy baseline.

Each stage is solved exactly by the Hungarian backend of
:func:`~repro.assignment.transportation.solve_capacitated_assignment`.
On a zero-slack instance a late stage can have no conflict-free,
member-free matching at all; that stage is then filled by the repair
pass of :func:`~repro.cra.repair.complete_assignment`, whose augmenting
swaps staff every paper while keeping all constraints.
"""

from __future__ import annotations

from typing import Any

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.cra.repair import complete_assignment
from repro.exceptions import InfeasibleProblemError
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["StageDeepeningGreedySolver"]


class StageDeepeningGreedySolver(CRASolver):
    """The paper's SDGA: ``delta_p`` optimal one-reviewer-per-paper stages."""

    name = "SDGA"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = Assignment()
        stage_gains: list[float] = []
        for stage in range(problem.group_size):
            with TRACER.span("sdga.stage", stage=stage) as stage_span:
                gain = self._run_stage(problem, assignment, stage)
                stage_span.set(gain=round(gain, 6))
            stage_gains.append(gain)
        return assignment, {"stages": problem.group_size, "stage_gains": stage_gains}

    # ------------------------------------------------------------------
    # One Stage-WGRAP step
    # ------------------------------------------------------------------
    @staticmethod
    def _run_stage(problem: WGRAPProblem, assignment: Assignment, stage: int) -> float:
        """Assign one more reviewer to every paper, in place; returns the gain.

        * Gains are marginal coverage gains relative to the groups formed in
          earlier stages (Equation 5), from one batched
          :meth:`~repro.core.dense.DenseProblem.gain_matrix` kernel.  The
          first stage (empty groups, where the gain of a reviewer *is*
          their pair score) is served straight from the shared — and,
          across mutations, delta-maintained — pair-score matrix, so a
          freshly mutated problem starts its first stage without any
          scoring work (bitwise-equal shortcut, see
          :meth:`~repro.core.dense.DenseProblem.stage_inputs`).
        * Forbidden pairs are conflicts of interest (the compiled
          feasibility mask) and reviewers already in the paper's group.
        * Per-reviewer capacity is the stage workload
          ``ceil(delta_r / delta_p)``, additionally clipped by the remaining
          global workload so the general (non-integral) case never exceeds
          ``delta_r`` in total; when the clip leaves too little headroom for
          one reviewer per paper (possible in the non-integral case's final
          stage), the global remainder is the binding constraint
          (Section 4.3.2) and is used instead.
        * When no matching exists at all (zero slack: the reviewers with
          capacity left are members of, or conflicted with, the papers
          that need them), the stage is filled to ``stage + 1`` reviewers
          per paper by :func:`complete_assignment`, and the stage's gain is
          the change in total coverage.
        """
        dense = problem.dense_view()
        gains, forbidden, capacities = dense.stage_inputs(assignment, stage_capped=True)
        try:
            result = solve_capacitated_assignment(gains, capacities, forbidden=forbidden)
        except InfeasibleProblemError:
            before = dense.assignment_score(assignment)
            filled = complete_assignment(problem, assignment, group_size=stage + 1)
            for paper_id in problem.paper_ids:
                assignment.clear_paper(paper_id)
            assignment.update(filled)
            return dense.assignment_score(assignment) - before
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            assignment.add(
                problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx]
            )
        return float(result.total_profit)
