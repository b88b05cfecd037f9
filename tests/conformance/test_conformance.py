"""The cross-solver differential conformance tests.

Every registered solver runs on the shared grid (see the package
docstring) under three strict invariants: production == oracle bitwise,
delta-maintained == cold-recompile bitwise, and validity under a cold
clone.  CI runs this file at smoke scale (the grid as defined); the
assertions themselves are never relaxed.
"""

from __future__ import annotations

import pytest

from repro.service.registry import available_solver_specs, available_solvers, create_solver
from tests.conformance import (
    CHAINS,
    GRID,
    TINY,
    apply_chain,
    cold_clone,
    make_instance,
)
from tests.conformance.oracles import WHOLE_SOLVER_ORACLES, oracle_solve, shadow_kernels

CRA_SPECS = available_solver_specs("cra")
JRA_SPECS = available_solver_specs("jra")
FAST_CRA = [spec for spec in CRA_SPECS if "exponential" not in spec.tags]
EXPONENTIAL_CRA = [spec for spec in CRA_SPECS if "exponential" in spec.tags]
MUTATION_CHAINS = [chain for chain in sorted(CHAINS) if chain != "unmutated"]


def _ids(specs):
    return [spec.name for spec in specs]


class TestRegistryCoverage:
    """The harness must cover the whole registry — by construction."""

    def test_every_cra_solver_is_in_exactly_one_speed_class(self):
        assert sorted(_ids(FAST_CRA) + _ids(EXPONENTIAL_CRA)) == available_solvers("cra")

    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_every_fast_cra_solver_is_checked_by_an_oracle(self, spec):
        """A whole-solver oracle, or at least one shadow-checked kernel call."""
        if spec.name in WHOLE_SOLVER_ORACLES:
            return
        problem = make_instance(TINY)
        with shadow_kernels() as calls:
            result = create_solver("cra", spec.name).solve(problem)
        assert sum(calls.values()) > 0, (
            f"{spec.name} has no whole-solver oracle and calls no shadowed kernel"
        )
        cold_clone(problem).validate_assignment(result.assignment)

    def test_bba_is_checked_by_an_oracle(self):
        problem = make_instance(TINY)
        with shadow_kernels() as calls:
            create_solver("jra", "BBA").solve(problem.to_jra(problem.paper_ids[0]))
        assert calls["advance_front"] > 0

    def test_oracles_name_registered_solvers(self):
        assert set(WHOLE_SOLVER_ORACLES) <= set(_ids(FAST_CRA))


class TestProductionEqualsOracleBitwise:
    """Every non-exponential CRA solver: production == oracle, bitwise."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_cra_production_equals_oracle(self, spec, instance_id):
        problem = make_instance(GRID[instance_id])
        production = create_solver("cra", spec.name).solve(problem)
        assignment, score = oracle_solve(spec.name, problem)
        assert production.assignment == assignment, (
            f"{spec.name} diverged from its oracle on {instance_id!r}"
        )
        assert production.score == score  # bitwise, not approx

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("instance_id", ["compact", "wide-groups", "tie-heavy-reviewer-coverage"])
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_cra_chain_production_equals_cold_oracle(self, spec, instance_id, chain_id):
        """Production on delta-maintained state == oracle on a cold clone."""
        mutated = apply_chain(make_instance(GRID[instance_id]), chain_id)
        production = create_solver("cra", spec.name).solve(mutated)
        assignment, score = oracle_solve(spec.name, cold_clone(mutated))
        assert production.assignment == assignment, (
            f"{spec.name} diverged from its oracle ({instance_id!r}, chain {chain_id!r})"
        )
        assert production.score == score

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_bba_front_equals_cursor_walk(self, instance_id):
        problem = make_instance(GRID[instance_id])
        for paper_id in (problem.paper_ids[0], problem.paper_ids[-1]):
            jra = problem.to_jra(paper_id)
            production = create_solver("jra", "BBA", top_k=3).solve(jra)
            # Every front is asserted equal to the cursor walk's before it is
            # used, so this run is the loop-front oracle's search tree.
            with shadow_kernels() as calls:
                oracle = create_solver("jra", "BBA", top_k=3).solve(jra)
            assert calls["advance_front"] > 0
            assert production.reviewer_ids == oracle.reviewer_ids
            assert production.score == oracle.score
            # identical search tree: node counts and the ranked top-k too
            assert dict(production.stats) == dict(oracle.stats)


class TestDeltaEqualsColdRecompileBitwise:
    """Solving on delta-maintained state == solving on a cold recompile."""

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("instance_id", ["compact", "wide-groups", "tie-heavy-reviewer-coverage"])
    @pytest.mark.parametrize("spec", FAST_CRA, ids=_ids(FAST_CRA))
    def test_cra_chain_equals_cold(self, spec, instance_id, chain_id):
        mutated = apply_chain(make_instance(GRID[instance_id]), chain_id)
        cold = cold_clone(mutated)
        fast = create_solver("cra", spec.name).solve(mutated)
        reference = create_solver("cra", spec.name).solve(cold)
        assert fast.assignment == reference.assignment, (
            f"{spec.name} result depends on delta-maintained state "
            f"({instance_id!r}, chain {chain_id!r})"
        )
        assert fast.score == reference.score
        # Validity under cold semantics (not just the delta-patched view).
        cold.validate_assignment(fast.assignment, require_complete=True)

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("spec", EXPONENTIAL_CRA, ids=_ids(EXPONENTIAL_CRA))
    def test_exponential_cra_chain_equals_cold(self, spec, chain_id):
        mutated = apply_chain(make_instance(TINY), chain_id)
        cold = cold_clone(mutated)
        fast = create_solver("cra", spec.name).solve(mutated)
        reference = create_solver("cra", spec.name).solve(cold)
        assert fast.assignment == reference.assignment
        assert fast.score == reference.score
        cold.validate_assignment(fast.assignment, require_complete=True)

    @pytest.mark.parametrize("chain_id", MUTATION_CHAINS)
    @pytest.mark.parametrize("spec", JRA_SPECS, ids=_ids(JRA_SPECS))
    def test_jra_chain_equals_cold(self, spec, chain_id):
        mutated = apply_chain(
            make_instance(
                dict(
                    num_papers=6, num_reviewers=11, num_topics=6, group_size=3,
                    reviewer_workload=5, conflict_ratio=0.1, seed=7,
                )
            ),
            chain_id,
        )
        cold = cold_clone(mutated)
        for paper_id in (mutated.paper_ids[0], mutated.paper_ids[-1]):
            fast = create_solver("jra", spec.name).solve(mutated.to_jra(paper_id))
            reference = create_solver("jra", spec.name).solve(cold.to_jra(paper_id))
            assert fast.reviewer_ids == reference.reviewer_ids
            assert fast.score == reference.score


class TestCrossSolverAgreement:
    """All exact JRA solvers find the same optimum on every grid cell."""

    @pytest.mark.parametrize("instance_id", sorted(GRID))
    def test_exact_jra_solvers_agree_on_the_optimum(self, instance_id):
        problem = make_instance(GRID[instance_id])
        for paper_id in (problem.paper_ids[0], problem.paper_ids[-1]):
            jra = problem.to_jra(paper_id)
            reference = jra.group_score(
                create_solver("jra", "BFS").solve(jra).reviewer_ids
            )
            for spec in JRA_SPECS:
                result = create_solver("jra", spec.name).solve(jra)
                value = jra.group_score(result.reviewer_ids)
                # The solver's reported score must match its own group...
                assert result.score == pytest.approx(value, abs=1e-12)
                # ...and every solver claiming optimality must reach the
                # BFS optimum (CP-FIRST reports is_optimal=False by design).
                if result.is_optimal:
                    assert value == pytest.approx(reference, abs=1e-12), (
                        f"{spec.name} returned a sub-optimal group on "
                        f"{instance_id!r}/{paper_id!r}"
                    )
