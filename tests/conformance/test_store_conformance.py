"""Storage-layer conformance: every backend is bitwise-equal to RAM.

The pluggable problem store (:mod:`repro.store`) must be *invisible* to
results.  This file pins that across the shared grid:

* **store round-trip == cold oracle, bitwise** — solving a problem that
  went through a SQLite store (create, close, reopen from disk, load)
  must produce the identical assignment and score as solving the cold
  in-RAM instance, for every fast CRA solver on the grid and every
  exponential solver on TINY.
* **mutation chains == in-RAM oracle, bitwise** — a store attached to a
  live mutation chain (adds, withdrawals, conflict edits) maintains its
  rows by incremental index deltas; the problem reloaded from disk after
  the chain must solve bitwise-equal to the chain's in-RAM result —
  including when the store is **closed and reopened mid-chain**.
* **memmap-backed engine == RAM engine, bitwise** — an engine whose
  score matrix lives in memmap blocks answers an interleaved request
  stream (solve / add / bids / journal / withdraw / rolled-back withdraw
  / evaluate) with responses identical to the in-RAM engine's.
* **one score matrix** — after every add, withdrawal and rolled-back
  withdrawal the engine holds exactly one pair-score matrix: the
  problem's, in RAM or mapped from the block file, never both.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.entities import Paper
from repro.data.synthetic import make_problem
from repro.exceptions import InfeasibleProblemError
from repro.service.engine import AssignmentEngine
from repro.service.registry import available_solver_specs, create_solver
from repro.store import InMemoryProblemStore, SqliteProblemStore
from tests.conformance import (
    CHAINS,
    GRID,
    TINY,
    apply_chain,
    cold_clone,
    late_paper,
    make_instance,
)

CRA_SPECS = available_solver_specs("cra")
FAST_CRA = [spec for spec in CRA_SPECS if "exponential" not in spec.tags]
EXPONENTIAL_CRA = [spec for spec in CRA_SPECS if "exponential" in spec.tags]
MUTATION_CHAINS = sorted(name for name in CHAINS if CHAINS[name] is not None)


def _ids(specs):
    return [spec.name for spec in specs]


def _store_round_trip(problem, path):
    """Compile ``problem`` into a store, then reload it from disk cold."""
    SqliteProblemStore.create(path, problem).close()
    store = SqliteProblemStore.open(path)
    reloaded = store.load_problem()
    store.close()
    return reloaded


class TestStoreRoundTripSolves:
    """SQLite round-trip == cold in-RAM oracle, bitwise, whole registry."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_fast_cra_grid(self, spec, instance_id, tmp_path):
        problem = make_instance(GRID[instance_id])
        reloaded = _store_round_trip(problem, tmp_path / "grid.db")
        stored = create_solver("cra", spec.name).solve(reloaded)
        oracle = create_solver("cra", spec.name).solve(cold_clone(problem))
        assert stored.assignment == oracle.assignment, (
            f"{spec.name} diverged through the store on {instance_id!r}"
        )
        assert stored.score == oracle.score  # bitwise, not approx

    @pytest.mark.parametrize("spec", EXPONENTIAL_CRA, ids=_ids(EXPONENTIAL_CRA))
    def test_exponential_cra_tiny(self, spec, tmp_path):
        problem = make_instance(TINY)
        reloaded = _store_round_trip(problem, tmp_path / "tiny.db")
        stored = create_solver("cra", spec.name).solve(reloaded)
        oracle = create_solver("cra", spec.name).solve(cold_clone(problem))
        assert stored.assignment == oracle.assignment
        assert stored.score == oracle.score

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_loaded_matrices_are_bitwise(self, instance_id, tmp_path):
        problem = make_instance(GRID[instance_id])
        reloaded = _store_round_trip(problem, tmp_path / "m.db")
        assert np.array_equal(
            np.asarray(problem.reviewer_matrix), np.asarray(reloaded.reviewer_matrix)
        )
        assert np.array_equal(
            np.asarray(problem.paper_matrix), np.asarray(reloaded.paper_matrix)
        )
        assert sorted(problem.conflicts) == sorted(reloaded.conflicts)


class TestCandidateGenerationParity:
    """Indexed candidate queries == the historical in-RAM scan."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_candidates_match_memory_backend(self, instance_id, tmp_path):
        problem = make_instance(GRID[instance_id])
        memory = InMemoryProblemStore(problem)
        sqlite = SqliteProblemStore.create(tmp_path / "c.db", problem)
        try:
            for paper_id in problem.paper_ids:
                assert sqlite.candidate_reviewers(paper_id) == (
                    memory.candidate_reviewers(paper_id)
                )
            for paper in problem.papers[:3]:
                indexed = sqlite.topic_candidates(paper.vector, limit=5)
                scanned = memory.topic_candidates(paper.vector, limit=5)
                # SQL's SUM accumulates per-topic in index order, the RAM
                # proxy is one dense matmul: same shortlist, ULP-level
                # score differences are fine (it is a pruning heuristic,
                # never a result — results stay bitwise elsewhere).
                assert {rid for rid, _ in indexed} == {rid for rid, _ in scanned}
                np.testing.assert_allclose(
                    np.array([s for _, s in indexed]),
                    np.array([s for _, s in scanned]),
                    rtol=1e-12,
                )
        finally:
            sqlite.close()


class TestMutationChains:
    """A store following a live chain == the in-RAM chain, bitwise."""

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_chain_reload_equals_oracle(self, instance_id, chain_id, tmp_path):
        spec = GRID[instance_id]
        oracle_tip = apply_chain(make_instance(spec), chain_id)
        oracle = create_solver("cra", "Greedy").solve(cold_clone(oracle_tip))

        base = make_instance(spec)
        store = SqliteProblemStore.create(tmp_path / "chain.db", base)
        apply_chain(base, chain_id)  # the attached store follows the chain
        store.close()

        reopened = SqliteProblemStore.open(tmp_path / "chain.db")
        try:
            stored = create_solver("cra", "Greedy").solve(reopened.load_problem())
            assert stored.assignment == oracle.assignment, (
                f"chain {chain_id!r} diverged through the store on {instance_id!r}"
            )
            assert stored.score == oracle.score
            assert reopened.stats.rebuilds == 0  # deltas, never a rebuild
        finally:
            reopened.close()

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_close_and_reopen_mid_chain(self, instance_id, tmp_path):
        """The chain survives a full close-and-reopen-from-disk mid-way."""
        spec = GRID[instance_id]
        path = tmp_path / "midchain.db"

        # In-RAM oracle: the whole chain on one resident problem.
        oracle_base = make_instance(spec)
        cur = oracle_base.with_additional_paper(late_paper(oracle_base, "mid-a"))
        cur.conflicts.add(cur.reviewer_ids[0], "mid-a")
        cur = cur.with_additional_paper(late_paper(cur, "mid-b"))
        oracle = create_solver("cra", "Greedy").solve(cold_clone(cur))

        # Store path: first half, close, reopen from disk, second half.
        base = make_instance(spec)
        store = SqliteProblemStore.create(path, base)
        half = base.with_additional_paper(late_paper(base, "mid-a"))
        half.conflicts.add(half.reviewer_ids[0], "mid-a")
        store.close()

        store = SqliteProblemStore.open(path)
        resumed = store.load_problem()
        store.attach(resumed)
        resumed.with_additional_paper(late_paper(resumed, "mid-b"))
        store.close()

        final = SqliteProblemStore.open(path)
        try:
            stored = create_solver("cra", "Greedy").solve(final.load_problem())
        finally:
            final.close()
        assert stored.assignment == oracle.assignment
        assert stored.score == oracle.score

    def test_workload_override_survives_reopen(self, tmp_path):
        """An ``add_paper`` that raises ``reviewer_workload`` must persist
        the raised constraint — otherwise the reopened problem is
        infeasible where the live chain was not (regression)."""
        from repro.service.engine import AssignmentEngine

        path = tmp_path / "workload.db"
        base = make_instance(GRID["compact"])
        raised = base.reviewer_workload + 1
        store = SqliteProblemStore.create(path, base)
        engine = AssignmentEngine.from_store(store)
        live = engine.add_paper(
            late_paper(engine.problem, "over-capacity"),
            reviewer_workload=raised,
        )
        assert live is not None
        live_solve = engine.solve("Greedy")
        store.close()

        reopened = SqliteProblemStore.open(path)
        try:
            problem = reopened.load_problem()
            assert problem.reviewer_workload == raised
            stored = create_solver("cra", "Greedy").solve(problem)
        finally:
            reopened.close()
        assert stored.assignment == live_solve.assignment
        assert stored.score == live_solve.score


def withdraw_rolled_back(engine, reviewer_id):
    """Withdraw ``reviewer_id`` so the repair fails and the engine rolls back.

    Every non-member of one of the reviewer's papers is declared
    conflicted with it, so the vacated slot cannot be refilled; the
    conflicts are lifted again once the engine has rolled back.
    """
    problem = engine.problem
    paper_id = sorted(engine.assignment.papers_of(reviewer_id))[0]
    group = engine.assignment.reviewers_of(paper_id)
    blocked = [rid for rid in problem.reviewer_ids if rid not in group]
    for rid in blocked:
        problem.conflicts.add(rid, paper_id)
    with pytest.raises(InfeasibleProblemError):
        engine.withdraw_reviewer(reviewer_id)
    assert engine.problem is problem
    for rid in blocked:
        problem.conflicts.discard(rid, paper_id)


class TestOneScoreMatrix:
    """The problem chain is the only owner of the pair-score matrix."""

    def _problem(self):
        return make_problem(10, 16, num_topics=8, reviewer_workload=6, seed=7)

    def _steps(self, engine, check):
        engine.solve("Greedy")
        engine.warm()
        check(engine)
        engine.add_paper(late_paper(engine.problem, "one-a"))
        check(engine)
        engine.withdraw_reviewer(engine.problem.reviewer_ids[-1])
        check(engine)
        withdraw_rolled_back(engine, engine.problem.reviewer_ids[2])
        check(engine)
        # The rolled-back problem is no longer the arena's tip: the next
        # append must not disturb the withdrawn branch's matrix.
        engine.add_paper(late_paper(engine.problem, "one-b"))
        check(engine)
        engine.withdraw_reviewer(engine.problem.reviewer_ids[0])
        check(engine)

    @staticmethod
    def _exact(engine):
        problem = engine.problem
        expected = problem.scoring.score_matrix(
            problem.reviewer_matrix, problem.paper_matrix
        )
        scores = problem.cached_pair_scores
        assert np.array_equal(scores, expected)
        return scores

    def test_ram_engine_shares_the_problems_matrix(self):
        engine = AssignmentEngine(self._problem())

        def check(engine):
            scores = self._exact(engine)
            assert np.shares_memory(engine.cache.matrix(), scores)
            assert engine.cache.matrix() is scores
            assert engine.problem.score_store is None

        self._steps(engine, check)

    def test_block_engine_keeps_the_matrix_mapped(self, tmp_path):
        store = SqliteProblemStore.create(
            tmp_path / "one.db", self._problem(), blocks=True, block_cols=4
        )
        engine = AssignmentEngine.from_store(store)
        blocks = store.matrix_backend()

        def check(engine):
            scores = self._exact(engine)
            assert isinstance(scores, np.memmap)
            assert Path(scores.filename).parent == blocks.directory
            assert engine.cache.matrix() is scores
            assert engine.problem.score_store is blocks

        try:
            self._steps(engine, check)
            assert blocks.appends >= 2 and blocks.drops >= 2
        finally:
            store.close()

    def test_binding_moves_a_warmed_matrix_into_the_blocks(self, tmp_path):
        problem = self._problem()
        warmed = np.array(problem.warm_pair_scores())
        store = SqliteProblemStore.create(tmp_path / "warm.db", problem, blocks=True)
        try:
            engine = AssignmentEngine(problem, store=store)
            scores = engine.problem.cached_pair_scores
            assert isinstance(scores, np.memmap)
            assert np.array_equal(scores, warmed)
            assert engine.cache.matrix() is scores
        finally:
            store.close()


class TestMemmapEngineParity:
    """Engine on memmap blocks == engine in RAM across a request stream."""

    def _problem(self):
        return make_problem(10, 16, num_topics=8, reviewer_workload=6, seed=7)

    def _drive(self, engine):
        responses = []
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        engine.update_bids(
            [
                (engine.problem.reviewer_ids[0], engine.problem.paper_ids[0], 1.0),
                (engine.problem.reviewer_ids[1], engine.problem.paper_ids[1], 0.25),
            ]
        )
        engine.add_paper(late_paper(engine.problem, "stream-a"))
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        answer = engine.journal_query(engine.problem.paper_ids[0], top_k=2)
        responses.append((answer.best.reviewer_ids, answer.best.score))
        engine.withdraw_reviewer(engine.problem.reviewer_ids[-1])
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        withdraw_rolled_back(engine, engine.problem.reviewer_ids[2])
        engine.add_paper(late_paper(engine.problem, "stream-b"))
        result = engine.solve("Greedy")
        responses.append((result.assignment, result.score))
        responses.append(engine.evaluate())
        return responses

    def test_interleaved_stream_bitwise(self, tmp_path):
        ram = AssignmentEngine(self._problem())
        store = SqliteProblemStore.create(
            tmp_path / "blocks.db", self._problem(), blocks=True, block_cols=4
        )
        blocked = AssignmentEngine.from_store(store)
        try:
            assert blocked.store is store
            assert store.matrix_backend() is not None
            assert self._drive(blocked) == self._drive(ram)
            description = store.matrix_backend().describe()
            assert description["appends"] >= 1
            assert description["drops"] >= 1
        finally:
            store.close()

    def test_reopen_between_requests(self, tmp_path):
        path = tmp_path / "resume.db"
        ram = AssignmentEngine(self._problem())
        ram.solve("Greedy")
        ram.add_paper(late_paper(ram.problem, "resume-a"))
        oracle = ram.solve("Greedy")

        store = SqliteProblemStore.create(path, self._problem(), blocks=True)
        engine = AssignmentEngine.from_store(store)
        engine.solve("Greedy")
        engine.add_paper(late_paper(engine.problem, "resume-a"))
        engine.sync_store()
        store.close()

        resumed = AssignmentEngine.from_store(SqliteProblemStore.open(path))
        try:
            result = resumed.solve("Greedy")
            assert result.assignment == oracle.assignment
            assert result.score == oracle.score
        finally:
            resumed.store.close()


class TestPaperWorthyInstance(object):
    """One store-backed solve at paper scale (small here, same code path)."""

    def test_store_backed_solve_validates(self, tmp_path):
        problem = make_problem(18, 24, num_topics=12, reviewer_workload=5, seed=11)
        store = SqliteProblemStore.create(
            tmp_path / "paper.db", problem, blocks=True, block_cols=8
        )
        engine = AssignmentEngine.from_store(store)
        try:
            result = engine.solve("Greedy")
            cold_clone(problem).validate_assignment(result.assignment)
            summary = store.describe()
            assert summary["reviewer_rows"] == 24
            assert summary["paper_rows"] == 18
        finally:
            store.close()
