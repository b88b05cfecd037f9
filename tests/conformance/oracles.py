"""Reference oracles the production solvers are checked against.

Every solver in :mod:`repro.cra` and :mod:`repro.jra.bba` has exactly one
production implementation, on the compiled
:class:`~repro.core.dense.DenseProblem` kernels.  This module keeps the
object-layer semantics those kernels compile — per-paper
:meth:`~repro.core.problem.WGRAPProblem.group_vector` +
:meth:`~repro.core.scoring.ScoringFunction.gain_vector` calls and per-pair
:meth:`~repro.core.problem.WGRAPProblem.is_feasible_pair` checks — written
once each, for clarity rather than speed.  There are two kinds:

* **Whole-solver oracles** — where the production algorithm differs from
  the textbook one: :func:`naive_greedy` (true-argmax re-scan, the oracle
  of Greedy's incremental column maxima), :func:`ratio_greedy`
  (per-iteration rebuild, the oracle of Ratio-Greedy's incremental gain
  columns) and :func:`local_search_refine` (per-move object search, the
  oracle of the batched move scan).  :data:`WHOLE_SOLVER_ORACLES` maps the
  registry names to them.
* **Input-kernel oracles** — where the solver runs one control flow on
  whatever inputs its kernels build (SDGA, SRA, Bid-SDGA, Repair, SM,
  BRGG, BBA): :func:`stage_inputs`, :func:`refill_inputs`,
  :func:`sm_preferences`, :func:`conflicted_reviewers` and
  :func:`advance_front`.  :func:`shadow_kernels` wraps each production
  kernel so that every call also builds the object-layer value, asserts
  bitwise equality and returns the production value.  Since each returned
  value is asserted equal to the oracle's, a shadowed solve *is* the solve
  on object-layer inputs, checked at every state the solver visits.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from typing import Any
from unittest import mock

import numpy as np

import repro.cra.brgg as brgg_module
import repro.cra.repair as repair_module
from repro.assignment.transportation import solve_capacitated_assignment
from repro.core.assignment import Assignment
from repro.core.dense import DenseProblem
from repro.core.problem import WGRAPProblem
from repro.cra.repair import complete_assignment
from repro.cra.sdga import StageDeepeningGreedySolver
from repro.cra.stable_matching import StableMatchingSolver
from repro.jra.bba import BranchAndBoundSolver
from repro.service.registry import create_solver

__all__ = [
    "WHOLE_SOLVER_ORACLES",
    "advance_front",
    "conflicted_reviewers",
    "local_search_refine",
    "naive_greedy",
    "oracle_solve",
    "ratio_greedy",
    "refill_inputs",
    "sdga_local_search",
    "shadow_kernels",
    "sm_preferences",
    "sra_refine",
    "stage_inputs",
]

#: minimum improvement for a local-search move to be accepted
_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# Input-kernel oracles
# ----------------------------------------------------------------------
def stage_inputs(
    problem: WGRAPProblem, assignment: Assignment, stage_capped: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, forbidden mask and capacities of one SDGA stage / SRA refill.

    The oracle of :meth:`DenseProblem.stage_inputs
    <repro.core.dense.DenseProblem.stage_inputs>`.
    """
    scoring = problem.scoring
    num_papers = problem.num_papers
    num_reviewers = problem.num_reviewers
    gains = np.empty((num_papers, num_reviewers), dtype=np.float64)
    forbidden = np.zeros((num_papers, num_reviewers), dtype=bool)
    loads = np.zeros(num_reviewers, dtype=np.int64)
    for paper_idx, paper_id in enumerate(problem.paper_ids):
        gains[paper_idx] = scoring.gain_vector(
            problem.group_vector(assignment, paper_id),
            problem.reviewer_matrix,
            problem.paper_matrix[paper_idx],
        )
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            if not problem.is_feasible_pair(reviewer_id, paper_id):
                forbidden[paper_idx, reviewer_idx] = True
        for reviewer_id in assignment.reviewers_of(paper_id):
            row = problem.reviewer_index(reviewer_id)
            forbidden[paper_idx, row] = True
            loads[row] += 1
    remaining = np.maximum(problem.reviewer_workload - loads, 0)
    capacities = remaining
    if stage_capped:
        capacities = np.minimum(problem.stage_workload, remaining)
        if int(capacities.sum()) < num_papers:
            capacities = remaining
    return gains, forbidden, capacities


def refill_inputs(
    problem: WGRAPProblem,
    assignment: Assignment,
    missing: list[str],
    capacities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gains and forbidden mask of one repair round (``_refill_inputs``)."""
    gains = np.empty((len(missing), problem.num_reviewers), dtype=np.float64)
    forbidden = np.zeros((len(missing), problem.num_reviewers), dtype=bool)
    for row, paper_id in enumerate(missing):
        gains[row] = problem.scoring.gain_vector(
            problem.group_vector(assignment, paper_id),
            problem.reviewer_matrix,
            problem.paper_matrix[problem.paper_index(paper_id)],
        )
        for reviewer_idx, reviewer_id in enumerate(problem.reviewer_ids):
            if capacities[reviewer_idx] <= 0:
                forbidden[row, reviewer_idx] = True
            elif not problem.is_feasible_pair(reviewer_id, paper_id):
                forbidden[row, reviewer_idx] = True
        for reviewer_id in assignment.reviewers_of(paper_id):
            forbidden[row, problem.reviewer_index(reviewer_id)] = True
    return gains, forbidden


def sm_preferences(problem: WGRAPProblem, pair_scores: np.ndarray) -> list[list[int]]:
    """Stable-matching preference lists via Python sorts (``_preferences_dense``)."""
    reviewer_ids = problem.reviewer_ids
    preference_lists: list[list[int]] = []
    for paper_idx, paper_id in enumerate(problem.paper_ids):
        column = pair_scores[:, paper_idx]
        order = sorted(range(problem.num_reviewers), key=lambda row: -float(column[row]))
        preference_lists.append(
            [row for row in order if problem.is_feasible_pair(reviewer_ids[row], paper_id)]
        )
    return preference_lists


def conflicted_reviewers(problem: WGRAPProblem, paper_id: str) -> set[str]:
    """BRGG's conflict exclusions via the conflict container.

    Filtered to the pool: the container can still name reviewers withdrawn
    earlier in a mutation chain.
    """
    pool = set(problem.reviewer_ids)
    return {
        reviewer_id
        for reviewer_id in problem.conflicts.reviewers_conflicting_with(paper_id)
        if reviewer_id in pool
    }


def advance_front(
    cursor: np.ndarray,
    visited_stage: np.ndarray,
    sorted_reviewers: np.ndarray,
    num_reviewers: int,
) -> list[int]:
    """BBA's candidate front as a per-topic cursor walk (advances ``cursor``)."""
    candidates: list[int] = []
    for topic in range(len(cursor)):
        position = cursor[topic]
        while (
            position < num_reviewers
            and visited_stage[sorted_reviewers[topic, position]] != 0
        ):
            position += 1
        cursor[topic] = position
        if position < num_reviewers:
            reviewer = int(sorted_reviewers[topic, position])
            if reviewer not in candidates:
                candidates.append(reviewer)
    return candidates


def _assert_bitwise(produced: Any, expected: Any, kernel: str) -> None:
    if isinstance(produced, tuple):
        assert len(produced) == len(expected), kernel
        for index, (left, right) in enumerate(zip(produced, expected)):
            _assert_bitwise(left, right, f"{kernel}[{index}]")
        return
    if isinstance(produced, list):
        assert produced == expected, f"{kernel} differs from its object-layer oracle"
        return
    produced = np.asarray(produced)
    expected = np.asarray(expected)
    assert produced.dtype == expected.dtype, (kernel, produced.dtype, expected.dtype)
    assert produced.shape == expected.shape, (kernel, produced.shape, expected.shape)
    assert produced.tobytes() == expected.tobytes(), (
        f"{kernel} differs bitwise from its object-layer oracle"
    )


@contextmanager
def shadow_kernels() -> Iterator[Counter[str]]:
    """Check every production input-kernel call against its oracle.

    Yields a counter of checked calls per kernel.  Patches module and class
    attributes, so it is not safe to use from several threads at once.
    """
    calls: Counter[str] = Counter()
    dense_stage_inputs = DenseProblem.stage_inputs
    dense_assignment_score = DenseProblem.assignment_score
    dense_refill_inputs = repair_module._refill_inputs
    dense_preferences = StableMatchingSolver._preferences_dense
    dense_conflicted = brgg_module._conflicted_reviewers
    vectorized_front = BranchAndBoundSolver._advance_front_vectorized

    def checked_stage_inputs(self, assignment, stage_capped=True):
        calls["stage_inputs"] += 1
        produced = dense_stage_inputs(self, assignment, stage_capped)
        expected = stage_inputs(self.problem, assignment, stage_capped)
        _assert_bitwise(produced, expected, "stage_inputs")
        return produced

    def checked_assignment_score(self, assignment):
        calls["assignment_score"] += 1
        produced = dense_assignment_score(self, assignment)
        expected = self.problem.assignment_score(assignment)
        _assert_bitwise(produced, expected, "assignment_score")
        return produced

    def checked_refill_inputs(problem, assignment, missing, capacities):
        calls["refill_inputs"] += 1
        produced = dense_refill_inputs(problem, assignment, missing, capacities)
        expected = refill_inputs(problem, assignment, missing, capacities)
        _assert_bitwise(produced, expected, "refill_inputs")
        return produced

    def checked_preferences(problem, pair_scores):
        calls["sm_preferences"] += 1
        produced = dense_preferences(problem, pair_scores)
        _assert_bitwise(produced, sm_preferences(problem, pair_scores), "sm_preferences")
        return produced

    def checked_conflicted(dense, paper_id):
        calls["conflicted_reviewers"] += 1
        produced = dense_conflicted(dense, paper_id)
        expected = conflicted_reviewers(dense.problem, paper_id)
        assert produced == expected, "BRGG conflict exclusions differ from the oracle"
        return produced

    def checked_front(cursor, visited_stage, sorted_reviewers, num_reviewers):
        calls["advance_front"] += 1
        oracle_cursor = cursor.copy()
        expected = advance_front(oracle_cursor, visited_stage, sorted_reviewers, num_reviewers)
        produced = vectorized_front(cursor, visited_stage, sorted_reviewers, num_reviewers)
        assert produced == expected, "BBA candidate front differs from the cursor walk"
        _assert_bitwise(cursor, oracle_cursor, "advance_front cursor")
        return produced

    patches = [
        mock.patch.object(DenseProblem, "stage_inputs", checked_stage_inputs),
        mock.patch.object(DenseProblem, "assignment_score", checked_assignment_score),
        mock.patch.object(repair_module, "_refill_inputs", checked_refill_inputs),
        mock.patch.object(
            StableMatchingSolver, "_preferences_dense", staticmethod(checked_preferences)
        ),
        mock.patch.object(brgg_module, "_conflicted_reviewers", checked_conflicted),
        mock.patch.object(
            BranchAndBoundSolver, "_advance_front_vectorized", staticmethod(checked_front)
        ),
    ]
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield calls


# ----------------------------------------------------------------------
# Whole-solver oracles
# ----------------------------------------------------------------------
def _feasibility(problem: WGRAPProblem) -> np.ndarray:
    """``(R, P)`` per-pair ``is_feasible_pair`` answers (fixed within a solve)."""
    return np.array(
        [
            [problem.is_feasible_pair(reviewer_id, paper_id) for paper_id in problem.paper_ids]
            for reviewer_id in problem.reviewer_ids
        ],
        dtype=bool,
    )


def _pair_greedy(
    problem: WGRAPProblem, capacity_weighted: bool
) -> tuple[Assignment, dict[str, Any]]:
    """Re-evaluate every open paper's gains, pick the true argmax, repeat.

    Ties go to the smallest ``(reviewer, paper)`` pair (``np.argmax`` over
    the ``(R, P)`` matrix).  ``capacity_weighted`` scales each gain by the
    reviewer's unused workload fraction (Ratio-Greedy).
    """
    feasible = _feasibility(problem)
    workload = problem.reviewer_workload
    assignment = Assignment()
    loads = np.zeros(problem.num_reviewers, dtype=np.int64)
    target_pairs = problem.num_papers * problem.group_size
    iterations = 0
    evaluations = 0

    while len(assignment) < target_pairs:
        profits = np.full((problem.num_reviewers, problem.num_papers), -np.inf)
        weight = (float(workload) - loads) / float(workload)
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            if assignment.group_size(paper_id) >= problem.group_size:
                continue
            column = problem.scoring.gain_vector(
                problem.group_vector(assignment, paper_id),
                problem.reviewer_matrix,
                problem.paper_matrix[paper_idx],
            )
            evaluations += problem.num_reviewers
            if capacity_weighted:
                column = column * weight
            allowed = (loads < workload) & feasible[:, paper_idx]
            for reviewer_id in assignment.reviewers_of(paper_id):
                allowed[problem.reviewer_index(reviewer_id)] = False
            profits[allowed, paper_idx] = column[allowed]

        reviewer_idx, paper_idx = np.unravel_index(np.argmax(profits), profits.shape)
        if not np.isfinite(profits[reviewer_idx, paper_idx]):
            break
        assignment.add(
            problem.reviewer_ids[int(reviewer_idx)], problem.paper_ids[int(paper_idx)]
        )
        loads[reviewer_idx] += 1
        iterations += 1

    repaired = len(assignment) < target_pairs
    if repaired:
        assignment = complete_assignment(problem, assignment)
    return assignment, {
        "iterations": iterations,
        "gain_evaluations": evaluations,
        "repaired": repaired,
    }


def naive_greedy(problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
    """The pair greedy as a full re-scan per pick (oracle of ``Greedy``)."""
    return _pair_greedy(problem, capacity_weighted=False)


def ratio_greedy(problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
    """The capacity-weighted pair greedy, rebuilt per pick (``Ratio-Greedy``)."""
    return _pair_greedy(problem, capacity_weighted=True)


def _replace_gain(
    problem: WGRAPProblem,
    assignment: Assignment,
    paper_id: str,
    out_reviewer: str,
    in_reviewer: str,
    current_score: float,
) -> float:
    assignment.remove(out_reviewer, paper_id)
    assignment.add(in_reviewer, paper_id)
    new_score = problem.paper_score(assignment, paper_id)
    assignment.remove(in_reviewer, paper_id)
    assignment.add(out_reviewer, paper_id)
    return new_score - current_score


def _exchange_gain(
    problem: WGRAPProblem,
    assignment: Assignment,
    paper_a: str,
    reviewer_a: str,
    paper_b: str,
    reviewer_b: str,
) -> float | None:
    """Gain of swapping ``reviewer_a`` and ``reviewer_b`` between papers."""
    if reviewer_b in assignment.reviewers_of(paper_a):
        return None
    if reviewer_a in assignment.reviewers_of(paper_b):
        return None
    if not problem.is_feasible_pair(reviewer_b, paper_a):
        return None
    if not problem.is_feasible_pair(reviewer_a, paper_b):
        return None
    before = problem.paper_score(assignment, paper_a) + problem.paper_score(
        assignment, paper_b
    )
    _swap(assignment, paper_a, reviewer_a, paper_b, reviewer_b)
    after = problem.paper_score(assignment, paper_a) + problem.paper_score(
        assignment, paper_b
    )
    _swap(assignment, paper_a, reviewer_b, paper_b, reviewer_a)
    return after - before


def _swap(
    assignment: Assignment, paper_a: str, reviewer_a: str, paper_b: str, reviewer_b: str
) -> None:
    assignment.remove(reviewer_a, paper_a)
    assignment.remove(reviewer_b, paper_b)
    assignment.add(reviewer_b, paper_a)
    assignment.add(reviewer_a, paper_b)


def _best_move_for_paper(
    problem: WGRAPProblem, assignment: Assignment, paper_id: str, moves: str
) -> tuple[float, tuple | None]:
    """The first-strict-improvement best move touching ``paper_id``."""
    best_gain = 0.0
    best_move: tuple | None = None
    current_score = problem.paper_score(assignment, paper_id)
    members = sorted(assignment.reviewers_of(paper_id))

    for reviewer_id in members:
        if moves in {"all", "replace"}:
            for candidate_id in problem.reviewer_ids:
                if candidate_id in members:
                    continue
                if assignment.load(candidate_id) >= problem.reviewer_workload:
                    continue
                if not problem.is_feasible_pair(candidate_id, paper_id):
                    continue
                gain = _replace_gain(
                    problem, assignment, paper_id, reviewer_id, candidate_id, current_score
                )
                if gain > best_gain + _TOLERANCE:
                    best_gain = gain
                    best_move = ("replace", paper_id, reviewer_id, candidate_id)

        if moves in {"all", "exchange"}:
            for other_paper_id in problem.paper_ids:
                if other_paper_id == paper_id:
                    continue
                for other_reviewer_id in sorted(assignment.reviewers_of(other_paper_id)):
                    gain = _exchange_gain(
                        problem, assignment, paper_id, reviewer_id,
                        other_paper_id, other_reviewer_id,
                    )
                    if gain is not None and gain > best_gain + _TOLERANCE:
                        best_gain = gain
                        best_move = (
                            "exchange", paper_id, reviewer_id,
                            other_paper_id, other_reviewer_id,
                        )
    return best_gain, best_move


def local_search_refine(
    problem: WGRAPProblem,
    assignment: Assignment,
    max_rounds: int = 100,
    moves: str = "all",
) -> tuple[Assignment, dict[str, Any]]:
    """Hill-climbing through object-layer ``paper_score`` calls.

    The oracle of :class:`~repro.cra.local_search.LocalSearchRefiner`
    (no time budget).
    """
    current = assignment.copy()
    current_score = problem.assignment_score(current)
    moves_applied = 0
    for _ in range(max_rounds):
        improved = False
        for paper_id in problem.paper_ids:
            gain, move = _best_move_for_paper(problem, current, paper_id, moves)
            if move is not None and gain > _TOLERANCE:
                if move[0] == "replace":
                    _, _, out_reviewer, in_reviewer = move
                    current.remove(out_reviewer, paper_id)
                    current.add(in_reviewer, paper_id)
                else:
                    _swap(current, *move[1:])
                current_score += gain
                moves_applied += 1
                improved = True
        if not improved:
            break
    return current, {"moves_applied": moves_applied, "final_score": current_score}


def sdga_local_search(problem: WGRAPProblem) -> tuple[Assignment, dict[str, Any]]:
    """SDGA followed by the local-search oracle (oracle of ``SDGA-LS``)."""
    base = StageDeepeningGreedySolver().solve(problem).assignment
    return local_search_refine(problem, base)


#: Registry name -> whole-solver oracle, for the solvers whose production
#: algorithm is not the textbook one.
WHOLE_SOLVER_ORACLES: dict[str, Callable[[WGRAPProblem], tuple[Assignment, dict]]] = {
    "Greedy": naive_greedy,
    "Ratio-Greedy": ratio_greedy,
    "SDGA-LS": sdga_local_search,
}


def oracle_solve(name: str, problem: WGRAPProblem) -> tuple[Assignment, float]:
    """``(assignment, score)`` of CRA solver ``name``, checked by its oracle.

    A whole-solver oracle replaces the solver; otherwise the production
    solver runs with every input kernel shadow-checked.
    """
    with shadow_kernels():
        if name in WHOLE_SOLVER_ORACLES:
            assignment, _ = WHOLE_SOLVER_ORACLES[name](problem)
            return assignment, problem.assignment_score(assignment)
        result = create_solver("cra", name).solve(problem)
        return result.assignment, result.score


def sra_refine(
    problem: WGRAPProblem,
    assignment: Assignment,
    rounds: int,
    seed: int,
    probability_model: str,
    decay: float,
) -> tuple[Assignment, float]:
    """Stochastic refinement with per-member scalar sampling arithmetic.

    Pins the removal sampling of
    :class:`~repro.cra.sra.StochasticRefiner` (the same random stream and
    victims) and its refill through :func:`stage_inputs`.
    """
    rng = np.random.default_rng(seed)
    pair_scores = problem.pair_score_matrix()
    reviewer_mass = pair_scores.sum(axis=1)
    reviewer_mass = np.where(reviewer_mass > 0.0, reviewer_mass, 1.0)
    current = assignment.copy()
    best = assignment.copy()
    best_score = problem.assignment_score(best)
    uniform_floor = 1.0 / problem.num_reviewers

    for round_index in range(1, rounds + 1):
        decay_factor = (
            float(np.exp(-decay * round_index)) if probability_model == "decayed" else 1.0
        )
        for paper_idx, paper_id in enumerate(problem.paper_ids):
            members = sorted(current.reviewers_of(paper_id))
            if not members:
                continue
            keep = np.empty(len(members), dtype=np.float64)
            for position, reviewer_id in enumerate(members):
                reviewer_idx = problem.reviewer_index(reviewer_id)
                if probability_model == "uniform":
                    keep[position] = uniform_floor
                    continue
                data_driven = (
                    decay_factor
                    * pair_scores[reviewer_idx, paper_idx]
                    / reviewer_mass[reviewer_idx]
                )
                keep[position] = max(uniform_floor, data_driven)
            removal = 1.0 - keep / keep.sum()
            if removal.sum() <= 0.0:
                removal = np.full(len(members), 1.0 / len(members))
            else:
                removal = removal / removal.sum()
            victim = rng.choice(len(members), p=removal)
            current.remove(members[int(victim)], paper_id)

        gains, forbidden, capacities = stage_inputs(problem, current, stage_capped=False)
        result = solve_capacitated_assignment(gains, capacities, forbidden=forbidden)
        for paper_idx, reviewer_idx in enumerate(result.row_to_col):
            current.add(problem.reviewer_ids[reviewer_idx], problem.paper_ids[paper_idx])

        current_score = problem.assignment_score(current)
        if current_score > best_score + 1e-12:
            best = current.copy()
            best_score = current_score
    return best, best_score
