"""Problem definitions: WGRAP (Definition 3) and JRA (Definition 6).

:class:`WGRAPProblem` bundles everything a conference-assignment solver
needs — papers, reviewers, the two cardinality constraints, optional
conflicts of interest and the scoring function — and exposes the dense
numpy views (reviewer matrix, paper matrix, pairwise score matrix) that the
solvers use for speed.

:class:`JRAProblem` is the single-paper special case (Journal Reviewer
Assignment) solved exactly in :mod:`repro.jra`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.constraints import ConflictOfInterest, WorkloadConstraints
from repro.core.entities import Paper, Reviewer
from repro.core.scoring import ScoringFunction, get_scoring_function
from repro.core.vectors import TopicVector
from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InfeasibleAssignmentError,
    InfeasibleProblemError,
)

# Entity id/position bookkeeping lives with the storage layer now, so every
# backend shares it; the historical private name stays importable.
from repro.store.base import EntityIndex as _EntityIndex

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.core.dense import DenseProblem
    from repro.core.delta import ViewStats
    from repro.store.base import ProblemStore
    from repro.store.blocks import MemmapScoreStore

__all__ = [
    "WGRAPProblem",
    "JRAProblem",
    "ProblemMutation",
    "ProblemVersions",
    "MutationListener",
    "minimal_reviewer_workload",
]


class ProblemVersions(NamedTuple):
    """Per-kind version counters of one problem instance.

    Papers and reviewers are immutable on a given instance, so their
    counters move only across derived problems (``with_additional_paper``
    bumps ``papers``, ``without_reviewer`` bumps ``reviewers``); the
    conflict counter tracks the live
    :class:`~repro.core.constraints.ConflictOfInterest` container.
    Compiled views key their delta maintenance on these counters: a view
    whose recorded versions match needs no work, a moved conflict counter
    is absorbed by an in-place mask patch, and moved paper/reviewer
    counters are absorbed at derivation time by the delta constructors of
    :mod:`repro.core.delta`.
    """

    papers: int
    reviewers: int
    conflicts: int


def minimal_reviewer_workload(num_papers: int, num_reviewers: int, group_size: int) -> int:
    """The smallest workload ``delta_r`` that keeps the problem feasible.

    The paper's conference experiments use this value
    (``delta_r = ceil(P * delta_p / R)``) because program chairs want the
    load spread as evenly as possible, and it is also the hardest setting
    for the solvers since every reviewer must participate.
    """
    if num_reviewers <= 0:
        raise ConfigurationError("there must be at least one reviewer")
    return max(1, math.ceil(num_papers * group_size / num_reviewers))


@dataclass(frozen=True)
class ProblemMutation:
    """Description of one structural change between two problem instances.

    Emitted by the derived-problem constructors
    (:meth:`WGRAPProblem.with_additional_paper`,
    :meth:`WGRAPProblem.without_reviewer`) so that long-lived components —
    most importantly the score-matrix cache of
    :class:`repro.service.engine.AssignmentEngine` — can update their state
    incrementally instead of recomputing everything from the new instance.

    Attributes
    ----------
    kind:
        ``"add_paper"`` or ``"remove_reviewer"``.
    source:
        The problem the mutation was applied to.
    result:
        The derived problem.
    papers:
        Ids of the papers added/affected by the mutation.
    reviewers:
        Ids of the reviewers removed/affected by the mutation.
    """

    kind: str
    source: "WGRAPProblem"
    result: "WGRAPProblem"
    papers: tuple[str, ...] = ()
    reviewers: tuple[str, ...] = ()


#: Callback invoked with a :class:`ProblemMutation` after a derived problem
#: is constructed.  Listeners are carried over to the derived problem, so a
#: subscriber keeps observing the whole mutation chain.
MutationListener = Callable[[ProblemMutation], None]




class WGRAPProblem:
    """A Weighted-coverage Group-based Reviewer Assignment Problem instance.

    Parameters
    ----------
    papers:
        The submissions to be reviewed.
    reviewers:
        The reviewer pool.
    group_size:
        ``delta_p`` — every paper must receive exactly this many reviewers.
    reviewer_workload:
        ``delta_r`` — no reviewer may receive more papers than this.  When
        omitted, the minimal feasible workload
        ``ceil(P * delta_p / R)`` is used, matching the paper's experiments.
    conflicts:
        Optional conflicts of interest.
    scoring:
        Scoring-function name or instance; defaults to weighted coverage.
    validate_capacity:
        When true (the default), raise :class:`InfeasibleProblemError` if
        ``R * delta_r < P * delta_p`` or if some paper cannot possibly get
        ``delta_p`` non-conflicted reviewers.
    """

    def __init__(
        self,
        papers: Sequence[Paper],
        reviewers: Sequence[Reviewer],
        group_size: int,
        reviewer_workload: int | None = None,
        conflicts: ConflictOfInterest | Iterable[tuple[str, str]] | None = None,
        scoring: str | ScoringFunction | None = None,
        validate_capacity: bool = True,
    ) -> None:
        if not papers:
            raise ConfigurationError("a WGRAP instance needs at least one paper")
        if not reviewers:
            raise ConfigurationError("a WGRAP instance needs at least one reviewer")
        self._papers: tuple[Paper, ...] = tuple(papers)
        self._reviewers: tuple[Reviewer, ...] = tuple(reviewers)
        self._paper_index = _EntityIndex([paper.id for paper in self._papers], "paper")
        self._reviewer_index = _EntityIndex(
            [reviewer.id for reviewer in self._reviewers], "reviewer"
        )

        num_topics = self._papers[0].num_topics
        for entity in (*self._papers, *self._reviewers):
            if entity.num_topics != num_topics:
                raise DimensionMismatchError(
                    "all papers and reviewers must share the same number of topics"
                )
        self._num_topics = num_topics

        if reviewer_workload is None:
            reviewer_workload = minimal_reviewer_workload(
                len(self._papers), len(self._reviewers), group_size
            )
        self._constraints = WorkloadConstraints(
            group_size=group_size, reviewer_workload=reviewer_workload
        )

        if conflicts is None:
            self._conflicts = ConflictOfInterest()
        elif isinstance(conflicts, ConflictOfInterest):
            self._conflicts = conflicts.copy()
        else:
            self._conflicts = ConflictOfInterest(conflicts)

        self._scoring = get_scoring_function(scoring)

        self._reviewer_matrix: np.ndarray | None = None
        self._paper_matrix: np.ndarray | None = None
        self._pair_scores: np.ndarray | None = None
        #: backing arena when the pair scores live in a chain-shared buffer
        self._pair_arena = None
        #: block store the chain keeps its pair scores in, or ``None`` for RAM
        self._score_store: "MemmapScoreStore | None" = None
        self._dense_view: "DenseProblem | None" = None
        #: bound storage backend answering entity/candidate queries, or
        #: ``None`` until one is bound / lazily defaulted to the in-RAM one
        self._entity_store: "ProblemStore | None" = None
        self._mutation_listeners: list[MutationListener] = []
        self._papers_version = 0
        self._reviewers_version = 0
        self._view_stats: "ViewStats | None" = None

        if validate_capacity:
            self._validate_capacity()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def papers(self) -> tuple[Paper, ...]:
        """The papers, in a fixed order used by all index-based APIs."""
        return self._papers

    @property
    def reviewers(self) -> tuple[Reviewer, ...]:
        """The reviewers, in a fixed order used by all index-based APIs."""
        return self._reviewers

    @property
    def num_papers(self) -> int:
        """``P`` — number of papers."""
        return len(self._papers)

    @property
    def num_reviewers(self) -> int:
        """``R`` — number of reviewers."""
        return len(self._reviewers)

    @property
    def num_topics(self) -> int:
        """``T`` — number of topics."""
        return self._num_topics

    @property
    def group_size(self) -> int:
        """``delta_p`` — reviewers required per paper."""
        return self._constraints.group_size

    @property
    def reviewer_workload(self) -> int:
        """``delta_r`` — maximum papers per reviewer."""
        return self._constraints.reviewer_workload

    @property
    def constraints(self) -> WorkloadConstraints:
        """The cardinality constraints as a value object."""
        return self._constraints

    @property
    def conflicts(self) -> ConflictOfInterest:
        """The conflict-of-interest set (possibly empty)."""
        return self._conflicts

    @property
    def scoring(self) -> ScoringFunction:
        """The scoring function used to evaluate assignments."""
        return self._scoring

    @property
    def stage_workload(self) -> int:
        """Per-stage reviewer workload ``ceil(delta_r / delta_p)`` for SDGA."""
        return self._constraints.stage_workload

    @property
    def versions(self) -> ProblemVersions:
        """Per-kind version counters keying delta view maintenance."""
        return ProblemVersions(
            papers=self._papers_version,
            reviewers=self._reviewers_version,
            conflicts=self._conflicts.version,
        )

    @property
    def view_stats(self) -> "ViewStats":
        """Shared compiled-view maintenance counters.

        The same object is carried along the whole mutation chain (like
        mutation listeners), so a long-lived engine observes cumulative
        ``recompiles`` / ``delta_applies`` / prune counters across every
        derived instance it has served.
        """
        if self._view_stats is None:
            from repro.core.delta import ViewStats

            self._view_stats = ViewStats()
        return self._view_stats

    # ------------------------------------------------------------------
    # Id <-> index mapping
    # ------------------------------------------------------------------
    @property
    def paper_ids(self) -> tuple[str, ...]:
        """All paper ids in problem order."""
        return self._paper_index.ids

    @property
    def reviewer_ids(self) -> tuple[str, ...]:
        """All reviewer ids in problem order."""
        return self._reviewer_index.ids

    def paper_index(self, paper_id: str) -> int:
        """Position of a paper in :attr:`papers`."""
        return self._paper_index.index_of(paper_id, "paper")

    def reviewer_index(self, reviewer_id: str) -> int:
        """Position of a reviewer in :attr:`reviewers`."""
        return self._reviewer_index.index_of(reviewer_id, "reviewer")

    def paper_by_id(self, paper_id: str) -> Paper:
        """Look up a paper by id."""
        return self._papers[self.paper_index(paper_id)]

    def reviewer_by_id(self, reviewer_id: str) -> Reviewer:
        """Look up a reviewer by id."""
        return self._reviewers[self.reviewer_index(reviewer_id)]

    # ------------------------------------------------------------------
    # Dense views (cached)
    # ------------------------------------------------------------------
    @property
    def reviewer_matrix(self) -> np.ndarray:
        """Read-only ``(R, T)`` matrix of reviewer vectors."""
        if self._reviewer_matrix is None:
            matrix = np.vstack([reviewer.vector.values for reviewer in self._reviewers])
            matrix.setflags(write=False)
            self._reviewer_matrix = matrix
        return self._reviewer_matrix

    @property
    def paper_matrix(self) -> np.ndarray:
        """Read-only ``(P, T)`` matrix of paper vectors."""
        if self._paper_matrix is None:
            matrix = np.vstack([paper.vector.values for paper in self._papers])
            matrix.setflags(write=False)
            self._paper_matrix = matrix
        return self._paper_matrix

    def pair_score_matrix(self) -> np.ndarray:
        """Cached ``(R, P)`` matrix of single-reviewer scores ``c(r, p)``.

        Conflicted pairs keep their raw score here; solvers must consult
        :meth:`is_feasible_pair` separately, since some of them (e.g. the
        stochastic refinement probability model) need the unmasked scores.
        """
        return self.warm_pair_scores()

    def warm_pair_scores(self, parallel=None) -> np.ndarray:
        """Materialise (and cache) the pair-score matrix.

        ``parallel`` is an optional :class:`~repro.parallel.ParallelConfig`
        forwarded to :meth:`ScoringFunction.score_matrix
        <repro.core.scoring.ScoringFunction.score_matrix>`: large problems
        are then scored by the sharded worker-pool kernel, which produces
        a bitwise-identical matrix.  Because the result is cached, warming
        in parallel up front speeds up every solver that reads
        :meth:`pair_score_matrix` afterwards.  With a bound score store
        (:meth:`bind_score_store`) the matrix is scored block by block into
        the mapped file and only a read-only view of it is kept.
        """
        if self._pair_scores is None:
            kwargs = {"parallel": parallel} if parallel is not None else {}
            reviewer_matrix = self.reviewer_matrix
            paper_matrix = self.paper_matrix
            store = self._score_store
            if store is not None:
                scores = store.build(
                    self.num_reviewers,
                    self.num_papers,
                    lambda start, stop: self._scoring.score_matrix(
                        reviewer_matrix, paper_matrix[start:stop], **kwargs
                    ),
                )
            else:
                scores = self._scoring.score_matrix(
                    reviewer_matrix, paper_matrix, **kwargs
                )
                scores.setflags(write=False)
            self._pair_scores = scores
        return self._pair_scores

    def pair_score(self, reviewer_id: str, paper_id: str) -> float:
        """Single-reviewer score ``c(r, p)`` for one pair."""
        return float(
            self.pair_score_matrix()[
                self.reviewer_index(reviewer_id), self.paper_index(paper_id)
            ]
        )

    @property
    def cached_pair_scores(self) -> np.ndarray | None:
        """The pair-score matrix if it has been materialised, else ``None``."""
        return self._pair_scores

    @property
    def score_store(self) -> "MemmapScoreStore | None":
        """The block store holding this chain's pair scores (``None``: RAM)."""
        return self._score_store

    def bind_score_store(self, store: "MemmapScoreStore") -> None:
        """Keep this chain's pair-score matrix in ``store`` instead of RAM.

        The binding is carried to every derived problem: builds score into
        the mapped file, added papers append a column to it and withdrawn
        reviewers roll a new generation of it, so each problem of the
        chain holds a read-only view of the file and the matrix never has
        to fit in RAM.  A matrix already warmed in RAM moves into the
        store.
        """
        self._score_store = store
        if self._pair_scores is not None:
            self._pair_scores = store.write_all(self._pair_scores)
            self._pair_arena = None

    def dense_view(self) -> "DenseProblem":
        """The cached index-space compilation of this problem.

        Builds a :class:`repro.core.dense.DenseProblem` on first use and
        returns the same view afterwards, so every solver and every engine
        request shares one feasibility mask and one set of contiguous
        matrices per instance.  Derived problems receive their view by
        delta from the source's (see :mod:`repro.core.delta`), so the
        compile normally happens once per problem *chain*, not once per
        mutation.

        Papers, reviewers and constraints are immutable, but the conflict
        set is a live container (``problem.conflicts.add(...)`` is public
        API), so the view records the conflict
        :attr:`~repro.core.constraints.ConflictOfInterest.version` it
        compiled against; when the conflicts have moved since, the tail of
        the conflict changelog is replayed *in place* into the compiled
        feasibility mask — the same view object stays current, at a cost
        proportional to the number of edits.
        """
        view = self._dense_view
        current = self.versions
        if view is not None and view.versions[:2] == current[:2]:
            if view.versions.conflicts == current.conflicts:
                return view
            changes = self._conflicts.changes_since(view.versions.conflicts)
            # Patch only while the tail is available (not compacted away)
            # and cheaper than the O(R * P) recompile it replaces.
            if changes is not None and len(changes) <= max(
                1024, (self.num_reviewers * self.num_papers) // 64
            ):
                from repro.core.delta import patch_conflicts_in_place

                return patch_conflicts_in_place(view, changes, current.conflicts)
        # No view yet, a compacted/oversized conflict tail, or moved
        # paper/reviewer counters (impossible on one immutable instance
        # through the public API — a defensive recompile trigger).
        from repro.core.dense import DenseProblem
        from repro.obs.trace import get_tracer

        with get_tracer().span(
            "dense.recompile",
            reviewers=self.num_reviewers,
            papers=self.num_papers,
        ):
            view = DenseProblem(self)
        self._dense_view = view
        return view

    def invalidate_caches(self) -> None:
        """Drop every lazily built matrix and compiled view of this problem.

        The caches rebuild transparently on next use (a bound score store
        stays bound), so results are unaffected — this hook exists for
        benchmarks and tests that need a full-recompile baseline to
        compare the delta-maintenance path against.
        """
        self._reviewer_matrix = None
        self._paper_matrix = None
        self._pair_scores = None
        self._pair_arena = None
        self._dense_view = None

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def is_feasible_pair(self, reviewer_id: str, paper_id: str) -> bool:
        """Whether assigning the pair is allowed (i.e. not a conflict)."""
        return not self._conflicts.is_conflict(reviewer_id, paper_id)

    def candidate_reviewers(self, paper_id: str) -> list[str]:
        """Reviewer ids that may review ``paper_id`` (COIs removed).

        Entity access goes through the bound store handle: the in-RAM
        backend runs the historical scan, the SQLite backend answers the
        same question as an indexed anti-join — identical output either
        way (pinned by the store conformance grid).
        """
        return self.entity_store.candidate_reviewers(paper_id)

    def _validate_capacity(self) -> None:
        if not self._constraints.is_satisfiable(self.num_reviewers, self.num_papers):
            raise InfeasibleProblemError(
                f"insufficient review capacity: {self.num_reviewers} reviewers x "
                f"workload {self.reviewer_workload} < {self.num_papers} papers x "
                f"group size {self.group_size}"
            )
        for paper in self._papers:
            candidates = len(self.candidate_reviewers(paper.id))
            if candidates < self.group_size:
                raise InfeasibleProblemError(
                    f"paper {paper.id!r} has only {candidates} non-conflicted "
                    f"reviewers but needs {self.group_size}"
                )

    # ------------------------------------------------------------------
    # Assignment evaluation
    # ------------------------------------------------------------------
    def group_vector(self, assignment: Assignment, paper_id: str) -> np.ndarray:
        """The aggregated expertise vector of a paper's assigned group.

        Returns the zero vector when the paper has no reviewers yet.
        """
        reviewer_ids = assignment.reviewers_of(paper_id)
        if not reviewer_ids:
            return np.zeros(self._num_topics, dtype=np.float64)
        rows = [self.reviewer_index(rid) for rid in reviewer_ids]
        return self.reviewer_matrix[rows].max(axis=0)

    def paper_score(self, assignment: Assignment, paper_id: str) -> float:
        """Weighted coverage of one paper under the assignment."""
        paper = self.paper_by_id(paper_id)
        group_vector = TopicVector(self.group_vector(assignment, paper_id))
        return self._scoring.score(group_vector, paper.vector)

    def assignment_score(self, assignment: Assignment) -> float:
        """Total coverage score ``c(A)`` (the WGRAP objective)."""
        return float(
            sum(self.paper_score(assignment, paper.id) for paper in self._papers)
        )

    def paper_scores(self, assignment: Assignment) -> dict[str, float]:
        """Per-paper coverage scores keyed by paper id."""
        return {paper.id: self.paper_score(assignment, paper.id) for paper in self._papers}

    # ------------------------------------------------------------------
    # Assignment validation
    # ------------------------------------------------------------------
    def validate_assignment(
        self, assignment: Assignment, require_complete: bool = True
    ) -> None:
        """Check an assignment against this problem's constraints.

        Parameters
        ----------
        assignment:
            The assignment to check.
        require_complete:
            When true, every paper must have exactly ``delta_p`` reviewers;
            when false, papers may have fewer (useful for partial/staged
            assignments) but never more.

        Raises
        ------
        InfeasibleAssignmentError
            Describing every violated constraint.
        """
        violations: list[str] = []
        known_papers = set(self.paper_ids)
        known_reviewers = set(self.reviewer_ids)
        for reviewer_id, paper_id in assignment.pairs():
            if paper_id not in known_papers:
                violations.append(f"unknown paper {paper_id!r}")
            if reviewer_id not in known_reviewers:
                violations.append(f"unknown reviewer {reviewer_id!r}")
            if self._conflicts.is_conflict(reviewer_id, paper_id):
                violations.append(
                    f"conflict of interest: reviewer {reviewer_id!r} on paper {paper_id!r}"
                )
        for paper in self._papers:
            size = assignment.group_size(paper.id)
            if size > self.group_size:
                violations.append(
                    f"paper {paper.id!r} has {size} reviewers, more than "
                    f"delta_p={self.group_size}"
                )
            elif require_complete and size != self.group_size:
                violations.append(
                    f"paper {paper.id!r} has {size} reviewers, expected "
                    f"delta_p={self.group_size}"
                )
        for reviewer in self._reviewers:
            load = assignment.load(reviewer.id)
            if load > self.reviewer_workload:
                violations.append(
                    f"reviewer {reviewer.id!r} has {load} papers, more than "
                    f"delta_r={self.reviewer_workload}"
                )
        if violations:
            raise InfeasibleAssignmentError("; ".join(violations))

    def is_valid_assignment(
        self, assignment: Assignment, require_complete: bool = True
    ) -> bool:
        """Boolean form of :meth:`validate_assignment`."""
        try:
            self.validate_assignment(assignment, require_complete=require_complete)
        except InfeasibleAssignmentError:
            return False
        return True

    # ------------------------------------------------------------------
    # Storage handles
    # ------------------------------------------------------------------
    @property
    def entity_store(self) -> "ProblemStore":
        """The storage backend answering this problem's entity queries.

        Defaults to the in-RAM store (the historical path, extracted);
        a persistent backend binds itself here through
        :meth:`bind_entity_store` when it loads or tracks the problem.  A
        bound store is only consulted while it still tracks *this*
        instance — after a mutation rebinds it to the derived problem,
        queries against this one fall back to the in-RAM handle, so an
        older chain member never reads newer state.
        """
        store = self._entity_store
        if store is not None and store.tracks(self):
            return store
        from repro.store.memory import InMemoryProblemStore

        store = InMemoryProblemStore(self)
        self._entity_store = store
        return store

    def bind_entity_store(self, store: "ProblemStore") -> None:
        """Route entity/candidate queries through ``store`` (see above)."""
        self._entity_store = store

    # ------------------------------------------------------------------
    # Mutation hooks
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener: MutationListener) -> MutationListener:
        """Subscribe a callback to structural mutations of this problem.

        Problems are immutable, so a "mutation" is the construction of a
        derived instance through :meth:`with_additional_paper` or
        :meth:`without_reviewer`.  Listeners are carried over to the derived
        instance, so one subscription observes the whole chain of updates.
        The listener is returned so it can be kept for
        :meth:`remove_mutation_listener`.
        """
        if listener not in self._mutation_listeners:
            self._mutation_listeners.append(listener)
        return listener

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Unsubscribe a callback registered with :meth:`add_mutation_listener`."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _emit_mutation(self, mutation: ProblemMutation) -> None:
        mutation.result._mutation_listeners = list(self._mutation_listeners)
        for listener in list(self._mutation_listeners):
            listener(mutation)

    def with_additional_paper(
        self,
        paper: Paper,
        reviewer_workload: int | None = None,
        pair_score_column: np.ndarray | None = None,
    ) -> "WGRAPProblem":
        """A derived problem with one late-arriving submission appended.

        The new paper is placed last, so index-based caches over the
        existing papers stay valid and only one column of pairwise scores
        needs to be computed — and the source's caches are carried over by
        delta: a cached pair-score matrix gains one freshly scored column
        (``R`` evaluations instead of ``R * P``), a compiled dense view is
        derived through :func:`repro.core.delta.dense_view_with_paper`, and
        the reviewer matrix is shared outright.  Every carried array is
        bitwise-equal to a cold rebuild.  Registered mutation listeners are
        notified with an ``"add_paper"`` event and carried over to the
        result.

        ``pair_score_column`` optionally supplies the new paper's ``(R,)``
        pair scores when the caller already computed them through the
        scoring kernel (the engine's staffing shortlist does), so the
        delta append does not score the column a second time.

        Raises
        ------
        ConfigurationError
            If the paper id already exists in the problem.
        """
        if paper.id in self._paper_index.positions:
            raise ConfigurationError(f"paper {paper.id!r} is already part of the problem")
        workload = (
            reviewer_workload if reviewer_workload is not None else self.reviewer_workload
        )
        derived = WGRAPProblem(
            papers=[*self._papers, paper],
            reviewers=self._reviewers,
            group_size=self.group_size,
            reviewer_workload=workload,
            conflicts=self._conflicts,
            scoring=self._scoring,
            validate_capacity=False,
        )
        derived._papers_version = self._papers_version + 1
        derived._reviewers_version = self._reviewers_version
        derived._view_stats = self.view_stats
        derived._score_store = self._score_store
        self._apply_add_paper_delta(derived, paper, pair_score_column)
        self._emit_mutation(
            ProblemMutation(
                kind="add_paper", source=self, result=derived, papers=(paper.id,)
            )
        )
        return derived

    def _apply_add_paper_delta(
        self,
        derived: "WGRAPProblem",
        paper: Paper,
        pair_score_column: np.ndarray | None = None,
    ) -> None:
        """Carry this problem's caches over to an add-paper derivation."""
        carried = False
        if self._reviewer_matrix is not None:
            derived._reviewer_matrix = self._reviewer_matrix  # identical rows, read-only
            carried = True
        if self._paper_matrix is not None:
            matrix = np.vstack([self._paper_matrix, paper.vector.values])
            matrix.setflags(write=False)
            derived._paper_matrix = matrix
            carried = True
        if self._pair_scores is not None:
            from repro.core.delta import appended_score_column

            derived._pair_scores, derived._pair_arena = appended_score_column(
                derived, self._pair_scores, self._pair_arena, paper,
                column=pair_score_column,
            )
            carried = True
        if self._dense_view is not None:
            from repro.core.delta import dense_view_with_paper

            # dense_view() first, so pending conflict edits are patched in
            # before the mask is extended.
            derived._dense_view = dense_view_with_paper(
                self.dense_view(), derived, paper
            )
            carried = True
        if carried:
            self.view_stats.delta_applies += 1

    def without_reviewer(self, reviewer_id: str) -> "WGRAPProblem":
        """A derived problem with one reviewer withdrawn from the pool.

        The relative order of the remaining reviewers is preserved, so
        row-based caches only need to drop a single row — which is exactly
        how the source's caches are carried over: the cached pair-score
        matrix and the compiled dense view lose one row with **zero**
        re-scoring (pair relations are independent across reviewers), and
        the paper-side arrays are shared outright (see
        :func:`repro.core.delta.dense_view_without_reviewer`).  Registered
        mutation listeners are notified with a ``"remove_reviewer"`` event
        and carried over to the result.

        Raises
        ------
        KeyError
            If the reviewer is not part of the problem.
        InfeasibleProblemError
            If the reviewer is the only one in the pool.
        """
        row = self.reviewer_index(reviewer_id)  # raises KeyError for unknown reviewers
        remaining = [
            reviewer for reviewer in self._reviewers if reviewer.id != reviewer_id
        ]
        if not remaining:
            raise InfeasibleProblemError("cannot withdraw the only reviewer in the pool")
        derived = WGRAPProblem(
            papers=self._papers,
            reviewers=remaining,
            group_size=self.group_size,
            reviewer_workload=self.reviewer_workload,
            conflicts=self._conflicts,
            scoring=self._scoring,
            validate_capacity=False,
        )
        derived._papers_version = self._papers_version
        derived._reviewers_version = self._reviewers_version + 1
        derived._view_stats = self.view_stats
        derived._score_store = self._score_store
        self._apply_remove_reviewer_delta(derived, reviewer_id, row)
        self._emit_mutation(
            ProblemMutation(
                kind="remove_reviewer",
                source=self,
                result=derived,
                reviewers=(reviewer_id,),
            )
        )
        return derived

    def _apply_remove_reviewer_delta(
        self, derived: "WGRAPProblem", reviewer_id: str, row: int
    ) -> None:
        """Carry this problem's caches over to a remove-reviewer derivation."""
        carried = False
        if self._paper_matrix is not None:
            derived._paper_matrix = self._paper_matrix  # identical rows, read-only
            carried = True
        if self._reviewer_matrix is not None:
            matrix = np.delete(self._reviewer_matrix, row, axis=0)
            matrix.setflags(write=False)
            derived._reviewer_matrix = matrix
            carried = True
        if self._pair_scores is not None:
            if self._score_store is not None:
                derived._pair_scores = self._score_store.drop_row(
                    self._pair_scores, row
                )
            else:
                scores = np.delete(self._pair_scores, row, axis=0)
                scores.setflags(write=False)
                derived._pair_scores = scores
            carried = True
        if self._dense_view is not None:
            from repro.core.delta import dense_view_without_reviewer

            derived._dense_view = dense_view_without_reviewer(
                self.dense_view(), derived, reviewer_id
            )
            carried = True
        if carried:
            self.view_stats.delta_applies += 1

    # ------------------------------------------------------------------
    # Derived problems
    # ------------------------------------------------------------------
    def to_jra(self, paper: Paper | str) -> "JRAProblem":
        """The JRA sub-problem of finding a group for a single paper."""
        paper_obj = self.paper_by_id(paper) if isinstance(paper, str) else paper
        excluded = self._conflicts.reviewers_conflicting_with(paper_obj.id)
        return JRAProblem(
            paper=paper_obj,
            reviewers=self._reviewers,
            group_size=self.group_size,
            excluded_reviewers=excluded,
            scoring=self._scoring,
        )

    def with_scoring(self, scoring: str | ScoringFunction) -> "WGRAPProblem":
        """A copy of this problem evaluated under a different scoring function."""
        return WGRAPProblem(
            papers=self._papers,
            reviewers=self._reviewers,
            group_size=self.group_size,
            reviewer_workload=self.reviewer_workload,
            conflicts=self._conflicts,
            scoring=scoring,
            validate_capacity=False,
        )

    def with_reviewers(self, reviewers: Sequence[Reviewer]) -> "WGRAPProblem":
        """A copy of this problem with a replaced reviewer pool.

        Used by the h-index expertise-scaling experiment (Appendix C), which
        rescales every reviewer vector but keeps everything else fixed.
        """
        return WGRAPProblem(
            papers=self._papers,
            reviewers=reviewers,
            group_size=self.group_size,
            reviewer_workload=self.reviewer_workload,
            conflicts=self._conflicts,
            scoring=self._scoring,
            validate_capacity=False,
        )

    def __repr__(self) -> str:
        return (
            f"WGRAPProblem(P={self.num_papers}, R={self.num_reviewers}, "
            f"T={self.num_topics}, delta_p={self.group_size}, "
            f"delta_r={self.reviewer_workload})"
        )


class JRAProblem:
    """Journal Reviewer Assignment: find ``delta_p`` reviewers for one paper.

    Parameters
    ----------
    paper:
        The single submission.
    reviewers:
        The candidate pool ``R``.
    group_size:
        ``delta_p`` — how many reviewers are required.
    excluded_reviewers:
        Reviewer ids that must not be selected (conflicts of interest).
    scoring:
        Scoring-function name or instance; defaults to weighted coverage.
    """

    def __init__(
        self,
        paper: Paper,
        reviewers: Sequence[Reviewer],
        group_size: int,
        excluded_reviewers: Iterable[str] = (),
        scoring: str | ScoringFunction | None = None,
    ) -> None:
        if group_size < 1:
            raise ConfigurationError("group_size (delta_p) must be at least 1")
        excluded = frozenset(excluded_reviewers)
        candidates = tuple(r for r in reviewers if r.id not in excluded)
        if len(candidates) < group_size:
            raise InfeasibleProblemError(
                f"only {len(candidates)} eligible reviewers for a group of {group_size}"
            )
        for reviewer in candidates:
            if reviewer.num_topics != paper.num_topics:
                raise DimensionMismatchError(
                    "paper and reviewers must share the same number of topics"
                )
        self._paper = paper
        self._reviewers = candidates
        self._excluded = excluded
        self._group_size = group_size
        self._scoring = get_scoring_function(scoring)
        self._index = _EntityIndex([reviewer.id for reviewer in candidates], "reviewer")
        self._reviewer_matrix: np.ndarray | None = None
        self._sorted_topic_lists: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def paper(self) -> Paper:
        """The paper to be reviewed."""
        return self._paper

    @property
    def reviewers(self) -> tuple[Reviewer, ...]:
        """The eligible candidate reviewers (conflicts already removed)."""
        return self._reviewers

    @property
    def excluded_reviewers(self) -> frozenset[str]:
        """Reviewer ids excluded by conflicts of interest."""
        return self._excluded

    @property
    def group_size(self) -> int:
        """``delta_p`` — the required group size."""
        return self._group_size

    @property
    def num_reviewers(self) -> int:
        """Number of eligible candidates."""
        return len(self._reviewers)

    @property
    def num_topics(self) -> int:
        """Number of topics."""
        return self._paper.num_topics

    @property
    def scoring(self) -> ScoringFunction:
        """The scoring function."""
        return self._scoring

    @property
    def reviewer_ids(self) -> tuple[str, ...]:
        """Candidate reviewer ids in problem order."""
        return self._index.ids

    def reviewer_index(self, reviewer_id: str) -> int:
        """Position of a candidate in :attr:`reviewers`."""
        return self._index.index_of(reviewer_id, "reviewer")

    def reviewer_by_id(self, reviewer_id: str) -> Reviewer:
        """Look up a candidate reviewer by id."""
        return self._reviewers[self.reviewer_index(reviewer_id)]

    @property
    def reviewer_matrix(self) -> np.ndarray:
        """Read-only ``(R, T)`` matrix of candidate vectors."""
        if self._reviewer_matrix is None:
            matrix = np.vstack([reviewer.vector.values for reviewer in self._reviewers])
            matrix.setflags(write=False)
            self._reviewer_matrix = matrix
        return self._reviewer_matrix

    @property
    def paper_vector(self) -> np.ndarray:
        """The paper's topic weights as a plain array."""
        return self._paper.vector.values

    def sorted_topic_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """The T sorted reviewer lists of BBA (Section 3), cached.

        Returns ``(sorted_reviewers, sorted_values)``: for every topic
        ``t``, ``sorted_reviewers[t]`` lists reviewer indices by expertise
        on ``t`` in descending order (stable, so ties keep index order)
        and ``sorted_values[t]`` the corresponding weights.  Cached on the
        instance, so every solve of one sub-problem (a top-k search and
        its pruned fallback, repeated solver calls) pays the
        ``O(T * R log R)`` pre-sort once.
        """
        if self._sorted_topic_lists is None:
            order = np.argsort(-self.reviewer_matrix, axis=0, kind="stable").T
            sorted_reviewers = np.ascontiguousarray(order)
            sorted_values = np.take_along_axis(
                self.reviewer_matrix.T, sorted_reviewers, axis=1
            )
            self._sorted_topic_lists = (sorted_reviewers, sorted_values)
        return self._sorted_topic_lists

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def group_score(self, reviewer_ids: Iterable[str]) -> float:
        """Coverage score of the group formed by the given reviewer ids."""
        ids = list(reviewer_ids)
        if not ids:
            return 0.0
        rows = [self.reviewer_index(rid) for rid in ids]
        group_vector = TopicVector(self.reviewer_matrix[rows].max(axis=0))
        return self._scoring.score(group_vector, self._paper.vector)

    def validate_group(self, reviewer_ids: Iterable[str]) -> None:
        """Check a candidate group for size, duplicates and exclusions.

        Raises
        ------
        InfeasibleAssignmentError
            If the group is not a feasible JRA answer.
        """
        ids = list(reviewer_ids)
        if len(set(ids)) != len(ids):
            raise InfeasibleAssignmentError("a reviewer group must not repeat reviewers")
        if len(ids) != self._group_size:
            raise InfeasibleAssignmentError(
                f"group has {len(ids)} reviewers, expected delta_p={self._group_size}"
            )
        for reviewer_id in ids:
            if reviewer_id in self._excluded:
                raise InfeasibleAssignmentError(
                    f"reviewer {reviewer_id!r} is excluded by a conflict of interest"
                )
            self.reviewer_index(reviewer_id)

    def __repr__(self) -> str:
        return (
            f"JRAProblem(paper={self._paper.id!r}, R={self.num_reviewers}, "
            f"delta_p={self._group_size})"
        )
