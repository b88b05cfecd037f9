"""Read side of the pair-score matrix for the assignment engine.

The most expensive shared input of every request the engine serves is the
dense ``(R, P)`` matrix of single-reviewer scores ``c(r, p)``: the solvers,
the per-paper reviewer shortlists and the candidate-pool pruning of journal
queries all read it.  The problem chain owns that matrix: a late paper
appends one scored column and a withdrawn reviewer drops one row, with no
re-scoring (see :mod:`repro.core.delta`), in RAM or in the block file of a
bound :class:`~repro.store.blocks.MemmapScoreStore`.

:class:`ScoreMatrixCache` keeps no copy of its own.  It reads the current
problem's matrix, builds it when nothing has yet (counting the scored
cells, so tests and benchmarks can assert how much scoring a request
triggered), and ranks reviewers per paper through :func:`rank_reviewers`.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.problem import WGRAPProblem
from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer
from repro.parallel.config import ParallelConfig

TRACER = get_tracer()

__all__ = ["CacheStats", "ScoreMatrixCache", "rank_reviewers"]


def rank_reviewers(
    scores: np.ndarray,
    reviewer_ids: Sequence[str],
    k: int,
    skip: Collection[str] = frozenset(),
) -> list[tuple[str, float]]:
    """The ``k`` highest-scoring reviewers of one score column, best first.

    Ties are broken by problem order (a stable sort), and reviewers in
    ``skip`` are passed over, so the result is deterministic and directly
    usable as a candidate shortlist.
    """
    shortlist: list[tuple[str, float]] = []
    for row in np.argsort(-scores, kind="stable").tolist():
        reviewer_id = reviewer_ids[row]
        if reviewer_id in skip:
            continue
        shortlist.append((reviewer_id, float(scores[row])))
        if len(shortlist) == k:
            break
    return shortlist


@dataclass
class CacheStats:
    """Counters describing how much scoring the score cache has done.

    Attributes
    ----------
    full_builds:
        Times the whole ``(R, P)`` matrix was scored because the current
        problem held none.
    scored_cells:
        Reviewer/paper cells those full builds evaluated.
    """

    full_builds: int = 0
    scored_cells: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports and the ``stats`` request)."""
        return {"full_builds": self.full_builds, "scored_cells": self.scored_cells}


class ScoreMatrixCache:
    """The engine's view of its current problem's ``(R, P)`` score matrix.

    Row ``i`` is ``problem.reviewers[i]`` and column ``j`` is
    ``problem.papers[j]``.  The engine rebinds the cache to each derived
    problem (:meth:`rebind`); the matrix itself is the problem's
    (:meth:`WGRAPProblem.pair_score_matrix`), carried along the mutation
    chain by delta.

    When a :class:`~repro.parallel.ParallelConfig` is given, full builds
    large enough to clear its serial threshold go through the sharded
    worker-pool kernel of :mod:`repro.parallel.sharding` (bitwise-identical
    results).
    """

    def __init__(
        self, problem: WGRAPProblem, parallel: ParallelConfig | None = None
    ) -> None:
        self._problem = problem
        self._parallel = parallel
        self.stats = CacheStats()

    @property
    def problem(self) -> WGRAPProblem:
        """The problem instance the cache currently reads."""
        return self._problem

    def rebind(self, problem: WGRAPProblem) -> None:
        """Read ``problem`` from now on (after a mutation or a rollback)."""
        self._problem = problem

    def matrix(self) -> np.ndarray:
        """The current problem's ``(R, P)`` score matrix (read-only).

        Scores the whole matrix when the problem holds none yet; every
        mutation after that carries it over by delta.
        """
        problem = self._problem
        scores = problem.cached_pair_scores
        if scores is None:
            with TRACER.span(
                "cache.full_build",
                reviewers=problem.num_reviewers,
                papers=problem.num_papers,
            ):
                scores = problem.warm_pair_scores(self._parallel)
            self.stats.full_builds += 1
            self.stats.scored_cells += problem.num_reviewers * problem.num_papers
        return scores

    def scores_for_paper(self, paper_id: str) -> np.ndarray:
        """One column of the matrix: every reviewer's score on ``paper_id``."""
        try:
            column = self._problem.paper_index(paper_id)
        except KeyError:
            raise KeyError(f"unknown paper id: {paper_id!r}") from None
        return self.matrix()[:, column]

    def top_reviewers(
        self, paper_id: str, k: int, exclude_conflicts: bool = True
    ) -> list[tuple[str, float]]:
        """The ``k`` highest-scoring reviewers for one paper, best first.

        Ties are broken by problem order so the ranking is deterministic.
        Conflicted reviewers are filtered out by default, which makes the
        result directly usable as a journal-query candidate shortlist.
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        scores = self.scores_for_paper(paper_id)
        forbidden = (
            self._problem.conflicts.reviewers_conflicting_with(paper_id)
            if exclude_conflicts
            else frozenset()
        )
        return rank_reviewers(scores, self._problem.reviewer_ids, k, forbidden)

    def describe(self) -> dict[str, Any]:
        """Summary used by the ``stats`` request of the serving front end."""
        problem = self._problem
        summary = {
            "built": problem.cached_pair_scores is not None,
            "shape": [problem.num_reviewers, problem.num_papers],
            "parallel_workers": (
                self._parallel.resolved_workers() if self._parallel is not None else 1
            ),
            **self.stats.as_dict(),
        }
        if problem.score_store is not None:
            summary["storage"] = problem.score_store.describe()
        return summary
