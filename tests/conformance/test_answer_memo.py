"""The journal answer memo never serves a stale answer; evaluate is exact.

:meth:`AssignmentEngine.journal_query` memoizes whole answers for papers
of the problem.  Every memoized answer must be bitwise-equal to the
answer a cold engine (fresh, on a cold clone of the same state) computes;
only ``elapsed_seconds`` and ``cache_hit`` may differ.  This is checked on
every grid cell, after every step of every mutation chain, and on the
mutations and query shapes that decide the memo's validity.

:meth:`AssignmentEngine.evaluate` scores from one dense per-paper vector;
every field must equal the object-layer oracle bitwise.
"""

from __future__ import annotations

import pytest

from repro.core.entities import Paper
from repro.data.synthetic import make_problem
from repro.exceptions import InfeasibleProblemError
from repro.service.engine import JOURNAL_MEMO_CAP, AssignmentEngine, JournalAnswer
from tests.conformance import (
    CHAIN_STEPS,
    CHAINS,
    GRID,
    apply_chain,
    cold_clone,
    late_paper,
    make_instance,
)
from tests.conformance.oracles import evaluate_fields


def _stable(answer: JournalAnswer) -> str:
    """The answer minus its timing and hit flag, as an exact string.

    ``repr`` round-trips floats, so equal strings mean bitwise-equal
    scores (it even tells ``0.0`` from ``-0.0``).
    """
    payload = answer.to_payload()
    del payload["elapsed_seconds"], payload["cache_hit"]
    return repr(payload)


def _query_shapes(problem) -> list[dict]:
    """One query per memo-key parameter a request can set."""
    size = problem.group_size
    return [
        {},
        {"top_k": 2},
        {"pool_size": min(problem.num_reviewers, size + 3)},
        {"prune": 4, "top_k": 2},
        {"solver": "BFS", "shortlist_size": 2},
        {"group_size": 1},
    ]


def _cold_answer(problem, paper_id: str, shape: dict) -> JournalAnswer:
    return AssignmentEngine(cold_clone(problem)).journal_query(paper_id, **shape)


def _assert_memo_matches_cold(engine: AssignmentEngine) -> None:
    problem = engine.problem
    for paper_id in problem.paper_ids:
        for shape in _query_shapes(problem):
            served = engine.journal_query(paper_id, **shape)
            assert _stable(served) == _stable(_cold_answer(problem, paper_id, shape)), (
                paper_id,
                shape,
                served.cache_hit,
            )


class TestMemoEqualsColdEngine:
    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_grid_cell(self, instance_id):
        engine = AssignmentEngine(make_instance(GRID[instance_id]))
        problem = engine.problem
        for paper_id in problem.paper_ids:
            for shape in _query_shapes(problem):
                first = engine.journal_query(paper_id, **shape)
                again = engine.journal_query(paper_id, **shape)
                assert not first.cache_hit and again.cache_hit
                cold = _cold_answer(problem, paper_id, shape)
                assert _stable(again) == _stable(first) == _stable(cold)

    @pytest.mark.parametrize("chain_id", sorted(CHAIN_STEPS))
    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_after_every_chain_step(self, instance_id, chain_id):
        problem = make_instance(GRID[instance_id])
        problem.dense_view()
        problem.warm_pair_scores()
        engine = AssignmentEngine(problem)
        _assert_memo_matches_cold(engine)  # fills the memo
        current = problem
        for step in CHAIN_STEPS[chain_id]:
            current = step(current, chain_id)
            assert engine.problem is current
            _assert_memo_matches_cold(engine)


def _spare_engine() -> AssignmentEngine:
    """A solved engine with spare workload, so withdrawals succeed."""
    engine = AssignmentEngine(make_instance(GRID["wide-groups"]))
    engine.solve("SDGA")
    return engine


def _cached(engine: AssignmentEngine) -> int:
    return engine.stats()["journal_answers_cached"]


class TestMemoBound:
    def test_sweep_past_the_cap_evicts_least_recently_used(self):
        """A client varying ``shortlist_size`` cannot grow the memo past
        its cap; evicted and kept answers both stay cold-exact."""
        engine = AssignmentEngine(make_instance(GRID["compact"]))
        problem = engine.problem
        reference = AssignmentEngine(cold_clone(problem))  # each key once: no hits
        paper_id = problem.paper_ids[0]
        sizes = range(JOURNAL_MEMO_CAP + 40)
        cold = {
            size: _stable(reference.journal_query(paper_id, shortlist_size=size))
            for size in sizes
        }

        def served(size: int, hit: bool) -> None:
            answer = engine.journal_query(paper_id, shortlist_size=size)
            assert answer.cache_hit is hit, size
            assert _stable(answer) == cold[size], size
            assert _cached(engine) <= JOURNAL_MEMO_CAP

        for size in sizes[:JOURNAL_MEMO_CAP]:
            served(size, hit=False)
        served(0, hit=True)  # now the most recently used entry
        for size in sizes[JOURNAL_MEMO_CAP:]:
            served(size, hit=False)
        assert _cached(engine) == JOURNAL_MEMO_CAP
        served(0, hit=True)
        served(1, hit=False)  # the least recently used entry was evicted
        served(sizes[-1], hit=True)


class TestMemoValidity:
    def test_live_conflict_edit_between_queries(self):
        engine = _spare_engine()
        paper_id = engine.problem.paper_ids[0]
        first = engine.journal_query(paper_id)
        drops = engine.stats()["journal_memo_drops"]
        engine.problem.conflicts.add(first.best.reviewer_ids[0], paper_id)
        second = engine.journal_query(paper_id)
        assert not second.cache_hit
        assert first.best.reviewer_ids[0] not in second.best.reviewer_ids
        assert _stable(second) == _stable(_cold_answer(engine.problem, paper_id, {}))
        assert engine.stats()["journal_memo_drops"] == drops + 1

    def test_withdraw_reviewer(self):
        engine = _spare_engine()
        paper_id = engine.problem.paper_ids[0]
        first = engine.journal_query(paper_id)
        engine.withdraw_reviewer(first.best.reviewer_ids[0])
        second = engine.journal_query(paper_id)
        assert not second.cache_hit
        assert _stable(second) == _stable(_cold_answer(engine.problem, paper_id, {}))

    def test_withdraw_rolled_back_by_infeasibility(self):
        # Minimal workload: every withdrawal is infeasible and rolls back.
        problem = make_problem(
            num_papers=8, num_reviewers=4, num_topics=6, group_size=2, seed=13
        )
        engine = AssignmentEngine(problem)
        engine.solve("SDGA")
        paper_id = problem.paper_ids[0]
        engine.journal_query(paper_id)
        with pytest.raises(InfeasibleProblemError):
            engine.withdraw_reviewer(problem.reviewer_ids[0])
        assert engine.problem is problem
        assert _cached(engine) == 0
        again = engine.journal_query(paper_id)
        assert not again.cache_hit
        assert _stable(again) == _stable(_cold_answer(problem, paper_id, {}))

    def test_add_paper_keeps_existing_answers(self):
        engine = _spare_engine()
        paper_id = engine.problem.paper_ids[0]
        engine.journal_query(paper_id)
        engine.add_paper(late_paper(engine.problem, "late-memo"))
        again = engine.journal_query(paper_id)
        assert again.cache_hit
        assert _stable(again) == _stable(_cold_answer(engine.problem, paper_id, {}))

    def test_update_bids_keeps_existing_answers(self):
        engine = _spare_engine()
        problem = engine.problem
        paper_id = problem.paper_ids[0]
        engine.journal_query(paper_id)
        engine.update_bids([(problem.reviewer_ids[0], paper_id, 0.9)])
        assert engine.journal_query(paper_id).cache_hit

    def test_each_key_parameter_makes_a_distinct_entry(self):
        engine = _spare_engine()
        problem = engine.problem
        paper_id = problem.paper_ids[0]
        base = {"group_size": 2, "top_k": 1, "pool_size": 6, "prune": None,
                "shortlist_size": 5, "solver": "BBA"}
        variants = [
            {"top_k": 2},
            {"prune": 5},
            {"pool_size": 8},
            {"shortlist_size": 3},
            {"group_size": 3},
            {"solver": "BFS"},
        ]
        engine.journal_query(paper_id, **base)
        for count, change in enumerate(variants, start=2):
            shape = {**base, **change}
            assert not engine.journal_query(paper_id, **shape).cache_hit, change
            assert _cached(engine) == count
            assert engine.journal_query(paper_id, **shape).cache_hit
        # A solver alias resolves to the same canonical entry.
        assert engine.journal_query(paper_id, **{**base, "solver": "bba"}).cache_hit

    def test_inline_papers_never_hit(self):
        engine = _spare_engine()
        inline = Paper(id="visitor", vector=late_paper(engine.problem, "visitor").vector)
        first = engine.journal_query(inline)
        second = engine.journal_query(inline)
        assert not first.cache_hit and not second.cache_hit
        assert _stable(first) == _stable(second)
        assert _cached(engine) == 0
        assert engine.stats()["journal_cache_hits"] == 0


class TestEvaluateEqualsObjectOracle:
    @pytest.mark.parametrize("chain_id", sorted(CHAINS))
    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_every_field(self, instance_id, chain_id):
        engine = AssignmentEngine(apply_chain(make_instance(GRID[instance_id]), chain_id))
        engine.solve("SDGA")
        payload = engine.evaluate(include_ratio=True, include_per_paper=True)
        expected = evaluate_fields(engine.problem, engine.assignment)
        for field, value in expected.items():
            assert repr(payload[field]) == repr(value), field
        assert list(payload["per_paper"]) == list(expected["per_paper"])
