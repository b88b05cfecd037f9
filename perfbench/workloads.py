"""Workload definitions and their seeded request scripts.

A workload is fixed problem instances plus a request script.  The problem
instances belong to the workload definition (fixed generator seeds, like
the paced rate), and so do the mutations' contents: bids, withdrawn
reviewers and late papers, drawn in script order from a fixed stream.
``--seed`` draws the order of the request kinds and tenants and of the
Zipf journal targets (on ``cra_solve``, of its probe; its cycles are
fixed).  Contents drawn per seed moved the in-process journal median by
2.6-4.8 ms from seed to seed, speed-normalised, through the different
states they built.
Every run of one ``(workload, seed, seconds)`` sends exactly the same
requests.

Scripts stay feasible whatever order the server applies them in:
journal and bid targets name only papers that exist when their phase
starts and reviewers that are never withdrawn, and withdrawals are capped
so that the final state, the worst one (capacity only shrinks, demand only
grows), keeps a spare-capacity margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.problem import WGRAPProblem, minimal_reviewer_workload
from repro.data.synthetic import SyntheticWorkloadGenerator, make_problem

MUTATION_KINDS = frozenset({"add_paper", "withdraw_reviewer", "update_bids"})

#: reviewers per paper (δp) of every tenant
GROUP_SIZE = 3
#: pool width of the journal and add_paper requests that use a shortlist
POOL_SIZE = 30
#: bids per update_bids request
BIDS_PER_REQUEST = 3
#: seed of the stream the mutations' contents are drawn from
CONTENT_SEED = 0xC0DE
#: Zipf exponent of journal-target popularity
ZIPF_EXPONENT = 1.0
#: spare capacity kept free at the end of every script, as a share of demand
CAPACITY_MARGIN = 0.05
#: pipelined requests each connection keeps in flight in a capacity phase
WINDOW = 8
#: wall time each probe phase is spread over
PROBE_SECONDS = 4.0
#: each cra_solve cycle's mutations, in a fixed order: the order changes
#: the state SDGA-SRA refines from, and seeded orders moved one cycle's
#: solve time by up to 1.7x
CRA_MUTATIONS = (
    "update_bids", "add_paper", "update_bids", "withdraw_reviewer", "update_bids", "add_paper"
)
#: the cra_solve solver line-up (fixed seed and omega for SDGA-SRA)
CRA_SOLVES = (
    {"kind": "solve", "solver": "SDGA-SRA", "options": {"seed": 7, "convergence_window": 10}},
    {"kind": "solve", "solver": "SDGA-LS"},
)


@dataclass(frozen=True)
class TenantSpec:
    """One resident tenant: a synthetic problem of a fixed size and seed."""

    name: str
    papers: int
    reviewers: int
    topics: int
    problem_seed: int
    spare_workload: int = 0

    def workload(self) -> int:
        return (
            minimal_reviewer_workload(self.papers, self.reviewers, GROUP_SIZE)
            + self.spare_workload
        )

    def build_problem(self) -> WGRAPProblem:
        return make_problem(
            self.papers,
            self.reviewers,
            num_topics=self.topics,
            group_size=GROUP_SIZE,
            seed=self.problem_seed,
            reviewer_workload=self.workload(),
        )

    def popularity(self) -> np.ndarray:
        """Paper indices from most to least popular (fixed per tenant)."""
        return np.random.default_rng(self.problem_seed).permutation(self.papers)


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: tuple[TenantSpec, ...]
    #: (kind, share in percent) of the capacity and paced phases
    mix: tuple[tuple[str, int], ...] = ()
    #: the server runs with a WAL (default policy: fsync batch, checkpoint 64)
    durable: bool = False
    #: paced-phase rate in requests per second; fixed once, never retuned
    paced_rate: float = 0.0
    #: capacity-phase requests per second of ``--seconds``
    capacity_per_second: int = 0
    #: journal requests restrict the pool to the top POOL_SIZE reviewers
    journal_pool: bool = False
    #: cra_solve: seconds of ``--seconds`` per closed-loop cycle
    seconds_per_cycle: float = 0.0


READ_MIX = Workload(
    name="read_mix",
    tenants=tuple(
        TenantSpec(f"read-{i}", 150, 60, 20, problem_seed=1500 + i) for i in range(2)
    ),
    mix=(("journal", 60), ("stats", 30), ("evaluate", 10)),
    paced_rate=25.0,
    capacity_per_second=60,
)
WRITE_MIX = Workload(
    name="write_mix",
    tenants=(TenantSpec("write-0", 300, 120, 20, problem_seed=3000, spare_workload=8),),
    mix=(
        ("update_bids", 30),
        ("add_paper", 8),
        ("withdraw_reviewer", 2),
        ("journal", 40),
        ("evaluate", 10),
        ("stats", 10),
    ),
    durable=True,
    paced_rate=40.0,
    capacity_per_second=100,
    journal_pool=True,
)
CRA_SOLVE = Workload(
    name="cra_solve",
    tenants=(TenantSpec("cra-0", 200, 80, 30, problem_seed=2000, spare_workload=2),),
    seconds_per_cycle=2.5,
    journal_pool=True,
)
WORKLOADS = {w.name: w for w in (READ_MIX, WRITE_MIX, CRA_SOLVE)}


@dataclass
class Phase:
    """One timed (or probe) phase: its requests and how they are sent.

    ``mode`` is ``"closed"`` (each connection keeps ``window`` requests in
    flight), ``"paced"`` (sent on a schedule at ``rate``) or ``"serial"``
    (one connection, one request in flight).
    """

    name: str
    mode: str
    requests: list[dict[str, Any]] = field(default_factory=list)
    rate: float = 0.0
    window: int = 1


def quota_kinds(count: int, mix: tuple[tuple[Any, float], ...], rng) -> list[Any]:
    """Exactly ``count`` kinds in the mix's proportions, in seeded order.

    Largest-remainder rounding makes every kind's count a function of
    ``count`` alone, so only the order depends on the seed.
    """
    total = sum(share for _, share in mix)
    exact = [count * share / total for _, share in mix]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    kinds = [kind for (kind, _), n in zip(mix, counts) for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def zipf_targets(count: int, items: int, exponent: float, rng) -> list[int]:
    """``count`` ranks ``0..items-1`` in Zipf proportions, in seeded order.

    The counts are :func:`quota_kinds` quotas, each within one of its
    expectation, so every seed queries the same papers equally often and
    only the order changes.  BBA's cost ranges over three orders of
    magnitude from paper to paper, and independent draws let the tail
    papers a seed happens to pick move the journal median by a third.
    """
    weights = tuple((rank, 1.0 / (rank + 1) ** exponent) for rank in range(items))
    return quota_kinds(count, weights, rng)


class _TenantState:
    """What the generator knows about one tenant while it writes a script."""

    def __init__(self, spec: TenantSpec, problem: WGRAPProblem, rng) -> None:
        self.spec = spec
        self.papers = list(problem.paper_ids)
        self.popular = [problem.paper_ids[i] for i in spec.popularity()]
        self.withdraw_order = [
            problem.reviewer_ids[i] for i in rng.permutation(problem.num_reviewers)
        ]
        self.withdrawn: list[str] = []
        #: withdrawals the script keeps; reviewers past it are never withdrawn
        self.withdraw_cap = 0
        self.workload = spec.workload()
        self.reviewers = problem.num_reviewers
        self.paper_vectors = SyntheticWorkloadGenerator(
            num_topics=spec.topics, seed=spec.problem_seed
        )


class ScriptWriter:
    """Writes every phase of one run from ``seed``."""

    def __init__(self, workload: Workload, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seconds = max(1, int(seconds))
        self.rng = np.random.default_rng([seed, 0x5EED])
        # What the mutations carry is part of the workload, like its
        # problems: drawn in script order from a fixed stream.
        self.content = np.random.default_rng(CONTENT_SEED)
        self.problems = {spec.name: spec.build_problem() for spec in workload.tenants}
        self.tenants = {
            spec.name: _TenantState(spec, self.problems[spec.name], self.content)
            for spec in workload.tenants
        }
        self._ids = 0
        self._client_seq = 0
        self._late = 0
        self.capped_withdrawals = 0

    # ------------------------------------------------------------------
    def phases(self) -> list[Phase]:
        """The timed phases."""
        plans = self._phase_plan()
        self._cap_withdrawals(plans)
        return [self._realise(plan) for plan in plans]

    def probes(self) -> tuple[Phase | None, Phase | None]:
        """Paced probes of the kinds the timed phases lack or hold few of.

        Every run reports every end-to-end metric, so the kinds a workload's
        timed phases lack come from short paced probes, each spread over
        ``PROBE_SECONDS``.  Before the timed phases, ``read_mix`` and
        ``write_mix`` re-solve with Greedy, which reinstalls the assignment
        set-up installed (nothing has mutated yet).  After them, ``read_mix``
        sends the bid updates it never sends while timed, and ``cra_solve``
        the journal queries and evaluates its cycles hold none or few of,
        and bid updates: a cycle's own mutations are half cheap bid updates
        and half costly paper and reviewer changes, so their median alone
        falls in the gap between the two and jumps from run to run.
        """
        w = self.workload
        names = [spec.name for spec in w.tenants]
        if w is CRA_SOLVE:
            kinds = [("journal", names[0])] * 60 + [("evaluate", names[0])] * 20 + [("update_bids", names[0])] * 60
            self.rng.shuffle(kinds)
            return None, self._paced("probe_after", kinds)
        before = self._paced("probe_before", [("solve:greedy", names[i % len(names)]) for i in range(12)])
        if w is READ_MIX:
            return before, self._paced("probe_after", [("update_bids", n) for _ in range(100) for n in names])
        return before, None

    def _paced(self, name: str, kinds: list[tuple[str, str]]) -> Phase:
        return self._realise((name, "paced", kinds, len(kinds) / PROBE_SECONDS))

    def cycles(self) -> int:
        return max(2, round(self.seconds / self.workload.seconds_per_cycle))

    # ------------------------------------------------------------------
    def _phase_plan(self) -> list[tuple]:
        w = self.workload
        names = [spec.name for spec in w.tenants]
        if w is CRA_SOLVE:
            kinds: list[tuple[str, str]] = []
            for _ in range(self.cycles()):
                kinds += [(k, names[0]) for k in CRA_MUTATIONS]
                kinds += [("solve:0", names[0]), ("solve:1", names[0]), ("evaluate", names[0])]
            return [("cycles", "serial", kinds, 0.0)]
        plans = []
        for phase, mode, count, rate in (
            ("capacity", "closed", w.capacity_per_second * self.seconds, 0.0),
            ("paced", "paced", int(w.paced_rate * self.seconds), w.paced_rate),
        ):
            pairs = tuple(((kind, n), share) for kind, share in w.mix for n in names)
            plans.append((phase, mode, quota_kinds(count, pairs, self.rng), rate))
        return plans

    def _cap_withdrawals(self, plans: list[tuple]) -> None:
        """Turn withdrawals that would break the capacity margin into bids."""
        for name, state in self.tenants.items():
            spec = state.spec
            adds = sum(1 for p in plans for k, t in p[2] if t == name and k == "add_paper")
            demand = (spec.papers + adds) * GROUP_SIZE
            limit = math.floor(
                state.reviewers - demand * (1 + CAPACITY_MARGIN) / state.workload
            )
            if limit < 0:
                raise ValueError(f"{name}: adds alone exceed capacity; raise spare_workload")
            slots = [
                (plan[2], i)
                for plan in plans
                for i, (kind, tenant) in enumerate(plan[2])
                if tenant == name and kind == "withdraw_reviewer"
            ]
            # Keep ``limit`` of them, evenly spread, so every phase keeps some.
            for n, (items, i) in enumerate(slots):
                if (n + 1) * limit // len(slots) == n * limit // len(slots):
                    items[i] = ("update_bids", name)
                    self.capped_withdrawals += 1
            state.withdraw_cap = min(len(slots), limit)

    def _realise(self, plan: tuple) -> Phase:
        name, mode, kinds, rate = plan
        w = self.workload
        # Targets are fixed at phase start, so server order cannot matter.
        live = {t: list(s.papers) for t, s in self.tenants.items()}
        # One quota per tenant, sized to that tenant's journals.
        draws = {
            t: iter(zipf_targets(sum(1 for k, n in kinds if k == "journal" and n == t),
                                 len(s.popular), ZIPF_EXPONENT, self.rng))
            for t, s in self.tenants.items()
        }
        requests = []
        for kind, tenant in kinds:
            state = self.tenants[tenant]
            body: dict[str, Any]
            if kind == "journal":
                body = {"kind": "journal", "paper_id": state.popular[int(next(draws[tenant]))]}
                if w.journal_pool:
                    body["pool_size"] = POOL_SIZE
            elif kind == "stats":
                body = {"kind": "stats"}
            elif kind == "evaluate":
                body = {"kind": "evaluate", "include_ratio": False}
            elif kind == "solve:greedy":
                body = {"kind": "solve", "solver": "Greedy"}
            elif kind.startswith("solve:"):
                body = dict(CRA_SOLVES[int(kind.split(":")[1])])
            elif kind == "update_bids":
                stable = state.withdraw_order[state.withdraw_cap :]
                bids = []
                for _ in range(BIDS_PER_REQUEST):
                    reviewer = stable[int(self.content.integers(len(stable)))]
                    paper = live[tenant][int(self.content.integers(len(live[tenant])))]
                    bids.append([reviewer, paper, round(float(self.content.random()), 3)])
                body = {"kind": "update_bids", "bids": bids}
            elif kind == "add_paper":
                self._late += 1
                vector = state.paper_vectors.paper_vectors(1, rng=self.content)[0]
                paper_id = f"late-{self._late:05d}"
                state.papers.append(paper_id)
                body = {
                    "kind": "add_paper",
                    "paper": {"id": paper_id, "vector": [float(x) for x in vector]},
                    "pool_size": POOL_SIZE,
                }
            elif kind == "withdraw_reviewer":
                reviewer = state.withdraw_order[len(state.withdrawn)]
                state.withdrawn.append(reviewer)
                body = {"kind": "withdraw_reviewer", "reviewer_id": reviewer}
            else:  # pragma: no cover - the mixes above name no other kind
                raise ValueError(kind)
            self._ids += 1
            body["id"] = f"{name}-{self._ids}"
            body["tenant"] = tenant
            if body["kind"] in MUTATION_KINDS or body["kind"] == "solve":
                self._client_seq += 1
                body["seq"] = self._client_seq
            requests.append(body)
        window = WINDOW if mode == "closed" else 1
        return Phase(name=name, mode=mode, requests=requests, rate=rate, window=window)


def warmup_requests(phases: list[Phase]) -> list[dict[str, Any]]:
    """One request per distinct read in the script (fills caches untimed).

    Journal targets are always papers of the initial problem, so every one
    exists before the first phase.
    """
    seen: dict[str, dict[str, Any]] = {}
    for phase in phases:
        for request in phase.requests:
            if request["kind"] not in ("journal", "evaluate", "stats"):
                continue
            key = repr(sorted((k, v) for k, v in request.items() if k not in ("id",)))
            seen.setdefault(key, request)
    out = []
    for i, request in enumerate(seen.values()):
        body = dict(request)
        body["id"] = f"warmup-{i}"
        out.append(body)
    return out


def check_feasible(writer: ScriptWriter, phases: list[Phase]) -> list[str]:
    """Problems a script would hit on the server, in any apply order.

    Checks what the generator promises: mutations name live ids, papers are
    added once, and the final state (the worst one) keeps the margin.
    Returns a list of violations; empty means feasible.
    """
    problems: list[str] = []
    for name, problem in writer.problems.items():
        spec = writer.tenants[name].spec
        withdrawn: set[str] = set()
        papers = set(problem.paper_ids)
        reviewers = set(problem.reviewer_ids)
        all_withdrawn = {
            r["reviewer_id"]
            for phase in phases
            for r in phase.requests
            if r["tenant"] == name and r["kind"] == "withdraw_reviewer"
        }
        for phase in phases:
            start_papers = set(papers)
            for request in phase.requests:
                if request["tenant"] != name:
                    continue
                kind = request["kind"]
                if kind == "journal" and request["paper_id"] not in start_papers:
                    problems.append(f"{request['id']}: journal on a paper not live at phase start")
                if kind == "update_bids":
                    for reviewer, paper, _ in request["bids"]:
                        if reviewer not in reviewers or reviewer in all_withdrawn:
                            problems.append(f"{request['id']}: bid names a withdrawn reviewer")
                        if paper not in start_papers:
                            problems.append(f"{request['id']}: bid names a paper not live at phase start")
                if kind == "add_paper":
                    paper_id = request["paper"]["id"]
                    if paper_id in papers:
                        problems.append(f"{request['id']}: paper {paper_id} added twice")
                    papers.add(paper_id)
                if kind == "withdraw_reviewer":
                    reviewer = request["reviewer_id"]
                    if reviewer in withdrawn or reviewer not in reviewers:
                        problems.append(f"{request['id']}: withdraws a reviewer twice")
                    withdrawn.add(reviewer)
        capacity = (len(reviewers) - len(withdrawn)) * spec.workload()
        demand = len(papers) * GROUP_SIZE
        if capacity < demand * (1 + CAPACITY_MARGIN):
            problems.append(f"{name}: final capacity {capacity} < demand {demand} + margin")
    return problems
