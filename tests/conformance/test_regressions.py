"""Named regression tests for defects the conformance harness surfaced.

Each test pins the exact instance (or the minimal reconstruction) that
exposed the bug, so the fix cannot silently regress.
"""

from __future__ import annotations

import pytest

from repro.core.entities import Paper, Reviewer
from repro.core.problem import WGRAPProblem
from repro.core.vectors import TopicVector
from repro.service.engine import AssignmentEngine
from repro.service.registry import create_solver
from tests.conformance import GRID, apply_chain, make_instance
from tests.conformance.oracles import (
    conflicted_reviewers,
    naive_greedy,
    oracle_solve,
    shadow_kernels,
)


class TestGreedyHeapTieDrift:
    """Harness finding #1: a lazy heap is not a valid bitwise oracle.

    On the tie-heavy ``reviewer_coverage`` grid cell a lazy heap's
    ulp-stale records reorder exact-gain ties and cascade into a
    *different assignment with a different score* (18.3497 vs 18.3628 at
    the time of the finding).  The fix: Greedy's oracle is the naive
    true-argmax re-scan evaluated through the object layer
    (``oracles.naive_greedy``); the heap survives only as a private
    baseline of the dense-kernel benchmark.
    """

    INSTANCE = "tie-heavy-reviewer-coverage"

    def test_dense_greedy_matches_naive_object_oracle_bitwise(self):
        problem = apply_chain(make_instance(GRID[self.INSTANCE]), "interleaved-all-three")
        dense = create_solver("cra", "Greedy").solve(problem)
        assignment, stats = naive_greedy(problem)
        assert dense.assignment == assignment
        assert dense.score == problem.assignment_score(assignment)
        assert dense.stats["iterations"] == stats["iterations"]


def _tiny_entities(num_topics: int = 3):
    vectors = [
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.3, 0.3, 0.4],
    ]
    reviewers = [
        Reviewer(id=f"r{i}", vector=TopicVector(values)) for i, values in enumerate(vectors)
    ]
    papers = [
        Paper(id="p0", vector=TopicVector([0.5, 0.3, 0.2])),
        Paper(id="p1", vector=TopicVector([0.2, 0.5, 0.3])),
    ]
    return papers, reviewers


class TestStaleConflictEntriesAfterWithdrawal:
    """Harness findings #2/#3: conflict entries can outlive their reviewer.

    The conflict container travels along mutation chains by id, so after
    ``without_reviewer`` it can still name reviewers no longer in the
    pool.  That crashed ``ExhaustiveSolver`` (KeyError on the index
    lookup) and made BRGG's object-layer exclusions *under-count*
    availability (``available = R - len(excluded)`` with phantom members
    in ``excluded``), shrinking groups that the dense mask — which never
    sees unknown ids — staffed in full.
    """

    def test_exhaustive_tolerates_conflicts_naming_withdrawn_reviewers(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=2,
            conflicts=[("r2", "p0")],
        )
        problem.dense_view()
        derived = problem.without_reviewer("r2")
        assert "r2" in derived.conflicts.reviewers_conflicting_with("p0")
        result = create_solver("cra", "Exhaustive").solve(derived)  # used to raise KeyError
        derived.validate_assignment(result.assignment)

    def test_brgg_object_path_counts_only_pool_members(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=2,
            conflicts=[("r2", "p0")],
        )
        problem.dense_view()
        derived = problem.without_reviewer("r2")
        # The phantom "r2" entry used to push the object path's available
        # count below delta_p, forcing a partial group + a repair detour
        # (observable as repaired=True here, and as an outright
        # InfeasibleProblemError on conflict-dense instances).
        assert conflicted_reviewers(derived, "p0") == set()
        dense = create_solver("cra", "BRGG").solve(derived)
        with shadow_kernels() as calls:
            oracle = create_solver("cra", "BRGG").solve(derived)
        assert calls["conflicted_reviewers"] > 0
        assert oracle.assignment == dense.assignment
        assert oracle.score == dense.score
        assert dict(oracle.stats) == dict(dense.stats)
        assert oracle.stats["repaired"] is False
        assert dense.assignment.group_size("p0") == 2

    def test_engine_add_paper_counts_only_pool_members(self):
        papers, reviewers = _tiny_entities()
        problem = WGRAPProblem(
            papers=papers, reviewers=reviewers, group_size=2, reviewer_workload=3,
        )
        engine = AssignmentEngine(problem)
        engine.solve("Greedy")
        # A conflict declared for a paper id that has not arrived yet,
        # naming a reviewer who then withdraws.
        engine.problem.conflicts.add("r0", "late")
        engine.withdraw_reviewer("r0")
        late = Paper(id="late", vector=TopicVector([0.4, 0.4, 0.2]))
        delta = engine.add_paper(late)  # used to raise InfeasibleProblemError
        assert delta.affected_papers == ("late",)
        assert engine.assignment.group_size("late") == 2
        engine.problem.validate_assignment(engine.assignment)


class TestConformanceSweepStaysClean:
    """The exact sweep cell that exposed finding #1 must stay clean for
    each of these solvers (cheap insurance against tie-order drift reappearing
    through a kernel change)."""

    @pytest.mark.parametrize("name", ["Greedy", "SDGA", "SM", "BRGG", "Ratio-Greedy", "Repair"])
    def test_tie_heavy_cell_dense_object_parity(self, name):
        problem = apply_chain(
            make_instance(GRID["tie-heavy-reviewer-coverage"]), "interleaved-all-three"
        )
        dense = create_solver("cra", name).solve(problem)
        assignment, score = oracle_solve(name, problem)
        assert dense.assignment == assignment
        assert dense.score == score
