"""Tests of the benchmark's own helpers (no server is started).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from perfbench.measures import covered, due_latencies, quartile_spread, rate, self_times, tail
from perfbench.speed import REFERENCE_S, scale
from perfbench.workloads import (
    CRA_SOLVE,
    READ_MIX,
    WORKLOADS,
    WRITE_MIX,
    ScriptWriter,
    check_feasible,
    quota_kinds,
    warmup_requests,
    zipf_targets,
)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail(values) == (990, 99.0, 1000)
    value, percentile, n = tail(range(100))
    assert (value, percentile, n) == (89, 90.0, 100)
    assert sum(1 for v in range(100) if v > value) == 10


def test_tail_falls_back_to_the_median_on_small_samples():
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 3)
    assert tail(range(20))[1] == 50.0
    assert tail(range(21)) == (10, 100 * 11 / 21, 21)
    assert tail([]) == (0.0, 0.0, 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},  # root
        {"start": 1.0, "end": 3.0, "parent": 0},
        {"start": 2.0, "end": 5.0, "parent": 0},  # overlaps its sibling
        {"start": 2.5, "end": 4.5, "parent": 2},  # grandchild
        {"start": 6.0, "end": 7.0, "parent": None},  # another root
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 2.0, 1.0])


def test_due_time_latency_charges_generator_stalls():
    records = [
        {"due": 0.0, "sent": 0.0, "recv": 0.010},
        {"due": 0.025, "sent": 0.040, "recv": 0.050},  # sent 15 ms late
    ]
    latency, lateness = due_latencies(records)
    assert latency == pytest.approx([0.010, 0.025])
    assert lateness == pytest.approx([0.0, 0.015])


def test_rate_leaves_out_the_gaps_between_segments_and_scales_each():
    ok = {"ok": True}
    records = [
        {"segment": 0, "sent": 0.0, "recv": 0.5, "scale": 1.0, "response": ok},
        {"segment": 0, "sent": 0.2, "recv": 1.0, "scale": 1.0, "response": ok},
        # a 3-second gap (speed sampling) before the second segment
        {"segment": 1, "sent": 4.0, "recv": 5.0, "scale": 0.5, "response": ok},
        {"segment": 1, "sent": 4.5, "recv": 5.0, "scale": 0.5, "response": {"ok": False}},
    ]
    assert rate(records, scaled=False) == pytest.approx(3 / 2.0)
    assert rate(records, scaled=True) == pytest.approx(3 / (1.0 + 0.5))


def test_scale_is_the_reference_over_the_mean_sample():
    assert scale([REFERENCE_S, REFERENCE_S]) == pytest.approx(1.0)
    # a core running at half speed: the kernel took twice as long
    assert scale([2 * REFERENCE_S]) == pytest.approx(0.5)
    assert scale([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(0.5)


def test_quartile_spread():
    assert quartile_spread([10, 10, 10, 10]) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


def test_quota_kinds_has_exact_counts_and_seeded_order():
    mix = (("journal", 60), ("stats", 30), ("evaluate", 10))
    a = quota_kinds(777, mix, np.random.default_rng(1))
    b = quota_kinds(777, mix, np.random.default_rng(2))
    assert collections.Counter(a) == collections.Counter(b)
    assert collections.Counter(a) == {"journal": 466, "stats": 233, "evaluate": 78}
    assert a != b


def test_zipf_targets_are_seed_independent_quotas():
    count, items = 900, 150
    ranks = zipf_targets(count, items, 1.0, np.random.default_rng(3))
    weights = 1.0 / np.arange(1, items + 1)
    expected = count * weights / weights.sum()
    observed = np.bincount(ranks, minlength=items)
    assert np.all(np.abs(observed - expected) < 1.0)
    other = zipf_targets(count, items, 1.0, np.random.default_rng(4))
    assert sorted(other) == sorted(ranks) and other != ranks


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seconds", [10, 20])
def test_seeded_scripts_are_feasible(name, seconds):
    writer = ScriptWriter(WORKLOADS[name], seed=5, seconds=seconds)
    phases = writer.phases()
    before, after = writer.probes()
    in_order = [p for p in (before, *phases, after) if p is not None]
    assert check_feasible(writer, in_order) == []
    ids = [r["id"] for phase in in_order for r in phase.requests]
    assert len(ids) == len(set(ids))
    seqs = [r["seq"] for phase in phases for r in phase.requests if "seq" in r]
    assert seqs == sorted(set(seqs))


def test_long_scripts_cap_withdrawals_instead_of_going_infeasible():
    writer = ScriptWriter(WRITE_MIX, seed=1, seconds=20)
    phases = writer.phases()
    assert writer.capped_withdrawals > 0
    assert check_feasible(writer, phases) == []
    kept = [sum(r["kind"] == "withdraw_reviewer" for r in p.requests) for p in phases]
    assert all(k > 0 for k in kept)  # every phase keeps some withdrawals


def test_feasibility_check_catches_a_withdrawn_bidder():
    writer = ScriptWriter(WRITE_MIX, seed=2, seconds=10)
    phases = writer.phases()
    withdrawn = next(
        r["reviewer_id"] for p in phases for r in p.requests if r["kind"] == "withdraw_reviewer"
    )
    bid = next(r for p in phases for r in p.requests if r["kind"] == "update_bids")
    bid["bids"][0][0] = withdrawn
    assert any("withdrawn reviewer" in problem for problem in check_feasible(writer, phases))


def test_same_seed_same_script_other_seed_other_script():
    def script(seed):
        return [r for p in ScriptWriter(READ_MIX, seed, 3).phases() for r in p.requests]

    assert script(4) == script(4)
    assert script(4) != script(5)


def test_cra_cycles_follow_the_fixed_line_up():
    phases = ScriptWriter(CRA_SOLVE, seed=3, seconds=10).phases()
    kinds = [r["kind"] for r in phases[0].requests]
    cycle = kinds[:9]
    assert collections.Counter(cycle[:6]) == {"update_bids": 3, "add_paper": 2, "withdraw_reviewer": 1}
    assert cycle[6:] == ["solve", "solve", "evaluate"]
    solvers = [r["solver"] for r in phases[0].requests if r["kind"] == "solve"]
    assert solvers[:2] == ["SDGA-SRA", "SDGA-LS"]


def test_warmup_covers_each_distinct_read_once():
    phases = ScriptWriter(READ_MIX, seed=6, seconds=3).phases()
    warm = warmup_requests(phases)
    targets = {(r["tenant"], r["paper_id"]) for r in warm if r["kind"] == "journal"}
    scripted = {
        (r["tenant"], r["paper_id"]) for p in phases for r in p.requests if r["kind"] == "journal"
    }
    assert targets == scripted
    assert len(targets) == sum(1 for r in warm if r["kind"] == "journal")
