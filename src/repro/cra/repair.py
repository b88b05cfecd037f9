"""Repair pass that completes a partial assignment.

Several constructive solvers (pair greedy, stable matching) can in tight
corner cases — capacity exactly equal to demand combined with conflicts of
interest — finish with a few papers short of their ``delta_p`` reviewers.
This module completes such assignments:

* normally with a capacitated one-reviewer-per-paper step (the same
  machinery SDGA uses for its stages), maximising the marginal coverage
  gain of the added pairs;
* when a paper is *deadlocked* — the only reviewers with spare capacity are
  already in its group — with a single augmenting swap that moves a member
  of another paper's group over and back-fills that paper with a
  spare-capacity reviewer, which preserves every constraint; when no
  single swap exists, with the longer chain of such moves a shortest
  augmenting path finds, which exists whenever a complete assignment does.

When the assignment is already complete the repair is a no-op.  The input
assignment is never modified; a completed copy is returned.

Applied to an *empty* assignment the repair pass is itself a constructive
solver: ``delta_p`` rounds of capacitated one-reviewer-per-paper refills
under the global workload — SDGA without the per-stage caps.
:class:`RefillRepairSolver` registers exactly that as the ``Repair``
baseline, so the refill machinery every other solver leans on is itself
exercised (and conformance-checked) as a first-class solver.

Refill inputs are built on the dense view; the conformance tests check
them bitwise against an object-layer construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.problem import WGRAPProblem
from repro.cra.base import CRASolver
from repro.exceptions import InfeasibleProblemError

__all__ = ["complete_assignment", "RefillRepairSolver"]


def complete_assignment(
    problem: WGRAPProblem, assignment: Assignment, group_size: int | None = None
) -> Assignment:
    """Fill every under-staffed paper up to ``group_size`` reviewers.

    ``group_size`` defaults to ``delta_p``; SDGA passes a smaller target
    to fill a single stage it cannot solve as one matching.

    Raises
    ------
    InfeasibleProblemError
        If the remaining capacity cannot cover the missing slots even with
        augmenting paths, i.e. the instance has no complete assignment
        (which a validated :class:`WGRAPProblem` rules out unless conflicts
        of interest are extremely dense).
    """
    target = problem.group_size if group_size is None else group_size
    completed = assignment.copy()
    safety_budget = problem.num_papers * target + 1

    for _ in range(safety_budget):
        missing = [
            paper_id
            for paper_id in problem.paper_ids
            if completed.group_size(paper_id) < target
        ]
        if not missing:
            return completed

        capacities = np.array(
            [
                problem.reviewer_workload - completed.load(reviewer_id)
                for reviewer_id in problem.reviewer_ids
            ],
            dtype=np.int64,
        )
        if int(np.maximum(capacities, 0).sum()) < len(missing):
            raise InfeasibleProblemError(
                "not enough remaining reviewer capacity to complete the assignment"
            )

        gains, forbidden = _refill_inputs(problem, completed, missing, capacities)

        deadlocked = [missing[row] for row in np.flatnonzero(forbidden.all(axis=1))]
        if deadlocked:
            for paper_id in deadlocked:
                if not (
                    _resolve_deadlock(problem, completed, paper_id)
                    or _augment(problem, completed, paper_id)
                ):
                    raise InfeasibleProblemError(
                        f"paper {paper_id!r} cannot be completed: every reviewer with "
                        "spare capacity is already in its group or conflicted"
                    )
            continue  # loads changed; rebuild the refill inputs

        try:
            result = solve_capacitated_assignment(
                gains, np.maximum(capacities, 0), forbidden=forbidden
            )
        except InfeasibleProblemError:
            # No paper is deadlocked, yet no one-reviewer-per-paper matching
            # exists (some set of short papers shares too few open
            # reviewers).  Staff the first short paper with its best open
            # reviewer; the papers this leaves deadlocked are freed by
            # swaps in the next rounds.
            open_rows = np.flatnonzero(~forbidden[0])
            best = int(open_rows[np.argmax(gains[0, open_rows])])
            completed.add(problem.reviewer_ids[best], missing[0])
            continue
        for row, paper_id in enumerate(missing):
            completed.add(problem.reviewer_ids[result.row_to_col[row]], paper_id)

    raise InfeasibleProblemError("the repair pass failed to converge")


def _refill_inputs(
    problem: WGRAPProblem,
    assignment: Assignment,
    missing: list[str],
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain matrix and forbidden mask for one refill round.

    Runs on the dense view: marginal gains of all missing papers come from
    one batched :meth:`~repro.core.dense.DenseProblem.gain_matrix` call and
    the forbidden mask is composed from the compiled feasibility mask
    instead of per-pair ``is_feasible_pair`` string checks.
    """
    dense = problem.dense_view()
    paper_indices = np.array(
        [dense.paper_pos[paper_id] for paper_id in missing], dtype=np.int64
    )
    group_vectors = np.zeros((len(missing), dense.num_topics), dtype=np.float64)
    member_rows: list[list[int]] = []
    for row, paper_id in enumerate(missing):
        rows = [dense.reviewer_pos[rid] for rid in assignment.reviewers_of(paper_id)]
        member_rows.append(rows)
        if rows:
            np.max(dense.reviewer_matrix[rows], axis=0, out=group_vectors[row])
    gains = dense.gain_matrix(group_vectors, paper_indices)
    forbidden = ~dense.feasible.T[paper_indices]
    forbidden |= (capacities <= 0)[None, :]
    for row, rows in enumerate(member_rows):
        if rows:
            forbidden[row, rows] = True
    return gains, forbidden


def _resolve_deadlock(
    problem: WGRAPProblem, assignment: Assignment, paper_id: str
) -> bool:
    """Free a slot for ``paper_id`` with one augmenting swap.

    A reviewer ``r`` with spare capacity (necessarily already in the paper's
    group) is added to some *other* paper ``q``, and in exchange one of
    ``q``'s reviewers ``s`` moves into ``paper_id``.  Loads and group sizes
    of everyone except the short paper stay unchanged, so the swap is always
    constraint-preserving.
    """
    group = assignment.reviewers_of(paper_id)
    spare_reviewers = [
        reviewer_id
        for reviewer_id in problem.reviewer_ids
        if assignment.load(reviewer_id) < problem.reviewer_workload
    ]
    for spare in spare_reviewers:
        for other_paper in problem.paper_ids:
            if other_paper == paper_id:
                continue
            other_group = assignment.reviewers_of(other_paper)
            if spare in other_group or not problem.is_feasible_pair(spare, other_paper):
                continue
            for candidate in sorted(other_group):
                if candidate in group or candidate == spare:
                    continue
                if not problem.is_feasible_pair(candidate, paper_id):
                    continue
                assignment.remove(candidate, other_paper)
                assignment.add(candidate, paper_id)
                assignment.add(spare, other_paper)
                return True
    return False


def _augment(problem: WGRAPProblem, assignment: Assignment, paper_id: str) -> bool:
    """Give ``paper_id`` one more reviewer along a shortest augmenting path.

    The general form of :func:`_resolve_deadlock`'s swap: ``paper_id``
    takes a reviewer ``r1`` from paper ``q1``, ``q1`` takes ``r2`` from
    ``q2``, ..., and the last paper takes a reviewer with spare capacity.
    Every other paper keeps its group size and every load stays within
    the workload.  Breadth-first search over papers and reviewers (each
    visited once, in id order) finds the path; by the max-flow augmenting
    path theorem one exists whenever the instance has a complete
    assignment.  Returns ``False`` when there is none.  Callers try the
    single swap first: it is cheaper, and its own choice order decides
    which swap is made whenever one exists.
    """
    workload = problem.reviewer_workload
    joins: dict[str, str] = {}  # reviewer -> the paper it moves into
    hands_over: dict[str, str] = {}  # paper -> the reviewer it gives up
    seen_reviewers: set[str] = set()
    seen_papers = {paper_id}
    queue = deque([paper_id])
    while queue:
        paper = queue.popleft()
        group = assignment.reviewers_of(paper)
        for reviewer in problem.reviewer_ids:
            if (
                reviewer in seen_reviewers
                or reviewer in group
                or not problem.is_feasible_pair(reviewer, paper)
            ):
                continue
            seen_reviewers.add(reviewer)
            joins[reviewer] = paper
            if assignment.load(reviewer) < workload:
                # Unwind: each paper on the path takes the next reviewer
                # and gives up the one that led the search to it.
                while True:
                    target = joins[reviewer]
                    assignment.add(reviewer, target)
                    if target == paper_id:
                        return True
                    reviewer = hands_over[target]
                    assignment.remove(reviewer, target)
            for other in sorted(assignment.papers_of(reviewer)):
                if other not in seen_papers:
                    seen_papers.add(other)
                    hands_over[other] = reviewer
                    queue.append(other)
    return False


class RefillRepairSolver(CRASolver):
    """The repair pass run from an empty assignment, as a solver.

    ``delta_p`` rounds of capacitated one-reviewer-per-paper refills under
    the *global* workload (no per-stage caps): structurally SDGA's
    machinery minus the Theorem 1/2 stage discipline, which makes it a
    useful ablation baseline — and puts :func:`complete_assignment`, the
    path every constructive solver falls back on, under direct
    conformance coverage.
    """

    name = "Repair"

    def _solve(self, problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
        assignment = complete_assignment(problem, Assignment())
        return assignment, {"rounds": problem.group_size}
