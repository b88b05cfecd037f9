"""The correctness gate: replay what the server answered, in process.

Every engine response carries ``seq``, its place in its tenant's total
execution order.  Replaying each tenant's requests serially in ``seq``
order through a fresh :class:`~repro.service.session.EngineSession` built
from the same problem file must reproduce every answer, ignoring only
timing fields and ``cache_hit``.  Reads between two mutations are
memoised, so a read-heavy script replays each distinct read once.
"""

from __future__ import annotations

import json
from typing import Any

from repro.data.io import load_problem
from repro.service.engine import AssignmentEngine
from repro.service.requests import MUTATION_KINDS, request_from_dict
from repro.service.session import EngineSession

#: payload fields that legitimately differ between runs
VOLATILE = frozenset({"elapsed_seconds", "cache_hit"})
#: the history-independent part of a ``stats`` answer
STATS_FIELDS = ("revision", "has_assignment", "last_solver", "last_score", "num_bids")
#: kinds whose answers are timing snapshots, never compared
UNCOMPARED = frozenset({"metrics"})


def stable(response: dict[str, Any]) -> Any:
    """The part of a wire response that must match the replay exactly."""
    if not response.get("ok"):
        return {"ok": False, "error_type": response.get("error_type")}
    payload = response["payload"]
    if response["kind"] == "stats":
        return {key: payload["engine"][key] for key in STATS_FIELDS}
    return {key: value for key, value in payload.items() if key not in VOLATILE}


def _key(request: dict[str, Any]) -> str:
    return json.dumps(
        {k: v for k, v in request.items() if k not in ("id", "tenant", "seq")}, sort_keys=True
    )


def replay(problem_path: str, records: list[dict]) -> list[str]:
    """Replay one tenant's answered requests; returns the mismatches.

    ``records`` must hold every engine request the tenant served, each
    with its wire ``response``; their ``seq`` numbers must be contiguous.
    """
    mismatches: list[str] = []
    ordered = sorted(records, key=lambda r: r["response"]["seq"])
    seqs = [r["response"]["seq"] for r in ordered]
    if seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        mismatches.append(f"seq numbers are not contiguous: {seqs[:5]}...")
    session = EngineSession(AssignmentEngine(load_problem(problem_path)))
    memo: dict[str, Any] = {}
    for record in ordered:
        request = record["request"]
        if request["kind"] in UNCOMPARED:
            continue
        key = _key(request)
        if request["kind"] in MUTATION_KINDS:
            memo.clear()
            expected = None
        else:
            expected = memo.get(key)
        if expected is None:
            body = {k: v for k, v in request.items() if k != "tenant"}
            answer = session.dispatch(request_from_dict(body)).to_dict()
            expected = stable(json.loads(json.dumps(answer)))
            if request["kind"] not in MUTATION_KINDS:
                memo[key] = expected
        if stable(record["response"]) != expected:
            mismatches.append(
                f"{request['id']} ({request['kind']}, seq {record['response']['seq']}) "
                "differs from the in-process replay"
            )
    return mismatches
