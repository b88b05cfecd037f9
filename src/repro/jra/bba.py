"""Branch-and-Bound Algorithm (BBA) for Journal Reviewer Assignment.

This is the paper's exact JRA solver (Section 3, Algorithm 1).  The search
space is the tree of reviewer combinations of depth ``delta_p``; BBA makes
it practical with three ingredients:

* **T sorted lists** — for every topic ``t`` the reviewers are pre-sorted
  by their expertise on ``t`` in descending order.
* **Branching** by marginal gain — at every stage the candidate reviewers
  are the ones currently pointed at by the per-topic cursors, and the one
  with the largest marginal gain (Definition 8) is tried first.
* **Bounding** — the per-topic cursors give an optimistic completion
  ``ub[t] = max(g[t], value at cursor t)``; if the coverage of that bound
  vector cannot beat the best group found so far, the branch is pruned and
  the search backtracks (Equation 3).

The solver is exact: pruning only removes branches whose upper bound is no
better than the incumbent.  Both the gain-based ordering and the bounding
can be disabled individually, which is used by the ablation benchmark to
quantify how much each contributes.

A ``top_k`` mode keeps the ``k`` best groups in a heap instead of a single
incumbent (Figure 15); pruning then compares against the k-th best score.

The candidate front runs in index space: the T sorted
lists come pre-computed (and cached across solves) from
:meth:`JRAProblem.sorted_topic_lists
<repro.core.problem.JRAProblem.sorted_topic_lists>`, the per-node cursor
advance checks all T fronts in one gather and falls into the per-topic
walk only for the cursors actually blocked by a visited reviewer, and the
candidate set is deduplicated with one ``np.unique`` in first-occurrence
order — the same front a per-topic cursor walk builds, which the
conformance tests check at every node.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.core.problem import JRAProblem
from repro.jra.base import JRASolver
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["BranchAndBoundSolver"]


class BranchAndBoundSolver(JRASolver):
    """Exact branch-and-bound JRA solver (the paper's BBA).

    Parameters
    ----------
    top_k:
        Number of best groups to retain.  With ``top_k == 1`` (default) the
        solver behaves exactly like Algorithm 1; with larger values the
        incumbent is replaced by a bounded heap and the result's
        ``stats["top_k"]`` lists the k best groups in descending order.
    use_bound:
        Disable to skip the upper-bound pruning (ablation only).
    use_gain_ordering:
        Disable to pick candidates in arbitrary (topic) order instead of by
        marginal gain (ablation only).
    """

    name = "BBA"

    def __init__(
        self,
        top_k: int = 1,
        use_bound: bool = True,
        use_gain_ordering: bool = True,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self._top_k = top_k
        self._use_bound = use_bound
        self._use_gain_ordering = use_gain_ordering

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------
    def _solve(
        self, problem: JRAProblem
    ) -> tuple[tuple[str, ...], float, bool, dict[str, Any]]:
        scoring = problem.scoring
        reviewer_matrix = problem.reviewer_matrix
        paper_vector = problem.paper_vector
        num_reviewers = problem.num_reviewers
        num_topics = problem.num_topics
        group_size = problem.group_size
        denominator = float(paper_vector.sum())

        # T sorted lists: sorted_reviewers[t] lists reviewer indices by
        # expertise on topic t, descending; sorted_values[t] the weights —
        # cached on the problem so repeat solves skip the pre-sort.
        sorted_reviewers, sorted_values = problem.sorted_topic_lists()

        def contribution(vector: np.ndarray) -> float:
            if denominator <= 0.0:
                return 0.0
            return float(scoring.topic_contribution(vector, paper_vector).sum()) / denominator

        # visited_stage[r] == 0 means "feasible"; otherwise it records the
        # stage at which the reviewer was visited along the current path.
        visited_stage = np.zeros(num_reviewers, dtype=np.int64)
        # One cursor array per stage (1-indexed); cursors[s][t] is a position
        # in sorted list t.
        cursors = [np.zeros(num_topics, dtype=np.int64) for _ in range(group_size + 1)]

        # Running group: member indices per stage and the running max vector
        # per stage (group_vectors[s] is the vector *before* stage s picks).
        members = np.full(group_size + 1, -1, dtype=np.int64)
        group_vectors = np.zeros((group_size + 2, num_topics), dtype=np.float64)

        nodes_expanded = 0
        prunings = 0
        complete_groups = 0

        # Incumbent bookkeeping: a bounded min-heap of the top_k best groups.
        incumbents: list[tuple[float, int, tuple[int, ...]]] = []
        tiebreak = 0

        def incumbent_threshold() -> float:
            if len(incumbents) < self._top_k:
                return -np.inf
            return incumbents[0][0]

        def record_group(group: tuple[int, ...], score: float) -> None:
            nonlocal tiebreak
            tiebreak += 1
            entry = (score, tiebreak, group)
            if len(incumbents) < self._top_k:
                heapq.heappush(incumbents, entry)
            elif score > incumbents[0][0]:
                heapq.heapreplace(incumbents, entry)

        stage = 1
        with TRACER.span("bba.search", group_size=group_size) as search_span:
            while stage >= 1:
                cursor = cursors[stage]
                group_vector = group_vectors[stage]

                # Advance every cursor of this stage past infeasible reviewers.
                candidates = self._advance_front_vectorized(
                    cursor, visited_stage, sorted_reviewers, num_reviewers
                )

                if not candidates:
                    stage = self._backtrack(stage, visited_stage, members)
                    continue

                # Bounding: optimistic completion uses the best remaining value
                # per topic (the value under each cursor).
                if self._use_bound:
                    cursor_values = np.where(
                        cursor < num_reviewers,
                        sorted_values[np.arange(num_topics), np.minimum(cursor, num_reviewers - 1)],
                        0.0,
                    )
                    upper_vector = np.maximum(group_vector, cursor_values)
                    if contribution(upper_vector) <= incumbent_threshold() + 1e-15:
                        prunings += 1
                        stage = self._backtrack(stage, visited_stage, members)
                        continue

                # Branching: evaluate the marginal gain of each candidate and
                # pick the best (or simply the first candidate when ordering is
                # disabled for the ablation study).
                if self._use_gain_ordering:
                    gains = scoring.gain_vector(
                        group_vector, reviewer_matrix[candidates], paper_vector
                    )
                    chosen = candidates[int(np.argmax(gains))]
                else:
                    chosen = candidates[0]

                nodes_expanded += 1
                visited_stage[chosen] = stage
                members[stage] = chosen
                extended_vector = np.maximum(group_vector, reviewer_matrix[chosen])

                if stage == group_size:
                    complete_groups += 1
                    score = contribution(extended_vector)
                    group = tuple(int(members[s]) for s in range(1, group_size + 1))
                    if score > incumbent_threshold() or len(incumbents) < self._top_k:
                        record_group(group, score)
                    # Stay at this stage and try the next candidate; the chosen
                    # reviewer remains visited at this stage so it is not retried.
                    members[stage] = -1
                else:
                    group_vectors[stage + 1] = extended_vector
                    cursors[stage + 1] = cursor.copy()
                    stage += 1
            search_span.set(nodes_expanded=nodes_expanded, prunings=prunings)

        if not incumbents:
            # Degenerate but possible when group_size > 0 and the paper has
            # zero topic mass: fall back to the lexicographically first group.
            fallback = tuple(range(group_size))
            record_group(fallback, 0.0)

        ranked = sorted(incumbents, key=lambda entry: (-entry[0], entry[1]))
        best_score, _, best_group = ranked[0]
        reviewer_ids = tuple(problem.reviewer_ids[index] for index in best_group)
        stats: dict[str, Any] = {
            "nodes_expanded": nodes_expanded,
            "prunings": prunings,
            "complete_groups_evaluated": complete_groups,
        }
        if self._top_k > 1:
            stats["top_k"] = [
                (tuple(problem.reviewer_ids[index] for index in group), score)
                for score, _, group in ranked
            ]
        return reviewer_ids, float(best_score), True, stats

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _advance_front_vectorized(
        cursor: np.ndarray,
        visited_stage: np.ndarray,
        sorted_reviewers: np.ndarray,
        num_reviewers: int,
    ) -> list[int]:
        """Advance the cursors past visited reviewers; return the candidates.

        One gather checks all T fronts instead of T Python loops.

        Only cursors whose front reviewer is currently visited fall into
        the per-topic walk (at most a handful per node: a cursor can only
        be blocked by a reviewer visited since the cursor array was
        copied).  Deduplication keeps first-occurrence topic order —
        exactly the list a per-topic cursor walk builds, so gain argmax
        tie-breaking and the ablation's ``candidates[0]`` pick follow the
        topic order.
        """
        live = np.flatnonzero(cursor < num_reviewers)
        if live.size:
            front = sorted_reviewers[live, cursor[live]]
            blocked = live[visited_stage[front] != 0]
            for topic in blocked.tolist():
                position = cursor[topic]
                while (
                    position < num_reviewers
                    and visited_stage[sorted_reviewers[topic, position]] != 0
                ):
                    position += 1
                cursor[topic] = position
            if blocked.size:
                live = np.flatnonzero(cursor < num_reviewers)
        if live.size == 0:
            return []
        rows = sorted_reviewers[live, cursor[live]]
        # dict preserves insertion order = first-occurrence topic order.
        return list(dict.fromkeys(rows.tolist()))

    @staticmethod
    def _backtrack(
        stage: int, visited_stage: np.ndarray, members: np.ndarray
    ) -> int:
        """Reset the current stage and step back to the previous one.

        Resetting clears the "visited" marks made at this stage (so those
        reviewers become available again under a different ancestor) and
        removes the previous stage's tentative member from the running
        group — it stays visited at that previous stage, so the search will
        move on to a different reviewer there.
        """
        visited_stage[visited_stage == stage] = 0
        previous = stage - 1
        if previous >= 1 and members[previous] >= 0:
            members[previous] = -1
        return previous
