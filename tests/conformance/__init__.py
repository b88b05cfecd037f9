"""Cross-solver conformance harness (the PR-5 correctness regime).

Every solver registered in :mod:`repro.service.registry` — CRA and JRA —
is run over a shared grid of instances (sizes x delta_p x group widths x
scoring functions) and live mutation chains mixing all three mutation
kinds (``with_additional_paper``, ``without_reviewer``, conflict edits),
and held to three invariants:

* **production == oracle, bitwise** — every non-exponential CRA solver
  and BBA has one implementation, checked against
  :mod:`tests.conformance.oracles`: a whole-solver oracle (Greedy,
  Ratio-Greedy, SDGA-LS), or a run in which every input-kernel call is
  shadow-checked against its object-layer construction.  The assignment
  and score must be identical, on every grid cell and, against a cold
  clone, on every mutation chain.
* **delta-maintained == cold recompile, bitwise** — solving on a problem
  whose compiled caches were carried along a mutation chain must equal
  solving the same instance rebuilt from its entities with every cache
  cold.
* **feasibility/validity** — every result must validate under a cold
  clone of the problem (group sizes, workloads, conflicts).

Bugs the harness shakes out get a *named* regression test in
``test_regressions.py`` pinning the exact instance that exposed them.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.entities import Paper
from repro.core.problem import WGRAPProblem
from repro.data.synthetic import make_problem

__all__ = [
    "GRID",
    "TINY",
    "CHAINS",
    "apply_chain",
    "cold_clone",
    "late_paper",
    "make_instance",
]

#: The shared instance grid: id -> make_problem keyword arguments.
#: Sizes, group widths, workload slack and scoring functions are varied;
#: the "tie-heavy" entries use the discrete winner-takes-all scorings
#: whose abundant exact ties historically exposed tie-order divergence.
GRID: dict[str, dict] = {
    "compact": dict(
        num_papers=10, num_reviewers=8, num_topics=6, group_size=2,
        reviewer_workload=5, conflict_ratio=0.05, seed=0,
    ),
    "wide-groups": dict(
        num_papers=8, num_reviewers=12, num_topics=5, group_size=3,
        reviewer_workload=5, conflict_ratio=0.12, seed=1,
    ),
    "tie-heavy-reviewer-coverage": dict(
        num_papers=12, num_reviewers=10, num_topics=7, group_size=3,
        reviewer_workload=6, conflict_ratio=0.0, seed=2,
        scoring="reviewer_coverage",
    ),
    "tie-heavy-paper-coverage": dict(
        num_papers=9, num_reviewers=9, num_topics=6, group_size=2,
        reviewer_workload=4, conflict_ratio=0.08, seed=3,
        scoring="paper_coverage",
    ),
    "dot-product": dict(
        num_papers=9, num_reviewers=9, num_topics=6, group_size=2,
        reviewer_workload=4, conflict_ratio=0.08, seed=4,
        scoring="dot_product",
    ),
}

#: A tiny instance for the exponential-time solvers (Exhaustive, ILP).
TINY: dict = dict(
    num_papers=4, num_reviewers=6, num_topics=4, group_size=2,
    reviewer_workload=4, conflict_ratio=0.1, seed=0,
)


def make_instance(spec: dict) -> WGRAPProblem:
    """Build one grid instance."""
    return make_problem(**spec)


def cold_clone(problem: WGRAPProblem) -> WGRAPProblem:
    """The same instance rebuilt from its entities, with every cache cold."""
    return WGRAPProblem(
        papers=problem.papers,
        reviewers=problem.reviewers,
        group_size=problem.group_size,
        reviewer_workload=problem.reviewer_workload,
        conflicts=problem.conflicts,
        scoring=problem.scoring,
        validate_capacity=False,
    )


def late_paper(problem: WGRAPProblem, tag: str) -> Paper:
    """A deterministic late submission named ``tag``.

    Seeded from a stable digest of the tag — *not* ``hash()``, which is
    salted per interpreter process and would silently rebuild every
    "pinned" chain instance with different vectors on each run.
    """
    rng = np.random.default_rng(zlib.crc32(tag.encode("utf-8")))
    return Paper(id=tag, vector=rng.dirichlet(np.full(problem.num_topics, 0.7)))


def _chain_interleaved(problem: WGRAPProblem, tag: str) -> WGRAPProblem:
    """add -> conflict add -> withdraw -> conflict discard -> add."""
    current = problem.with_additional_paper(late_paper(problem, f"{tag}-a"))
    current.conflicts.add(current.reviewer_ids[0], f"{tag}-a")
    current = current.without_reviewer(current.reviewer_ids[3])
    current.conflicts.discard(current.reviewer_ids[0], f"{tag}-a")
    return current.with_additional_paper(late_paper(current, f"{tag}-b"))


def _chain_withdraw_first(problem: WGRAPProblem, tag: str) -> WGRAPProblem:
    """withdraw -> add -> conflict add (left in place)."""
    current = problem.without_reviewer(problem.reviewer_ids[-1])
    current = current.with_additional_paper(late_paper(current, f"{tag}-a"))
    current.conflicts.add(current.reviewer_ids[1], current.paper_ids[0])
    return current


#: Mutation chains: id -> builder.  ``None`` is the unmutated control.
CHAINS: dict[str, object] = {
    "unmutated": None,
    "interleaved-all-three": _chain_interleaved,
    "withdraw-then-add-then-conflict": _chain_withdraw_first,
}


def apply_chain(problem: WGRAPProblem, chain_id: str) -> WGRAPProblem:
    """Warm the caches, then run a mutation chain down the delta path."""
    builder = CHAINS[chain_id]
    if builder is None:
        return problem
    problem.dense_view()
    problem.warm_pair_scores()
    return builder(problem, chain_id)
