"""Start ``wgrap serve`` with the benchmark's layer boundaries timed as spans.

Usage: ``python perfbench/launcher.py serve --tcp ...`` with
``PERFBENCH_SPANS=<file>`` in the environment.  Before handing over to
``repro.cli.main`` the launcher wraps the public functions each layer is
entered through (the table is :data:`WRAPS`); nothing under ``src/`` is
edited.  Spans stay in memory, each ``[name, start, end, parent, thread,
request id, extra]`` with ``time.perf_counter`` clocks, which on Linux is
``CLOCK_MONOTONIC`` and so comparable with the client's.

``SIGHUP`` writes the finished spans to ``$PERFBENCH_SPANS``
(atomically, as JSON lines).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time

from repro.obs import get_registry

SPANS: list[list] = []
_local = threading.local()
_submitted: dict[int, float] = {}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _span(name, original, request_id=None, extra=None):
    """Wrap ``original`` so each call records one span."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        rid = request_id(args) if request_id else (parent[5] if parent else None)
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), rid, None]
        SPANS.append(span)
        stack.append(span)
        try:
            result = original(*args, **kwargs)
            if extra is not None:
                span[6] = extra(args, result)
            return result
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    return wrapper


def _dispatch(original):
    """``EngineSession.dispatch`` plus the queue wait since ``Tenant.submit``."""
    timed = _span("session.dispatch", original, lambda a: a[1].request_id, lambda a, r: a[1].kind)

    @functools.wraps(original)
    def wrapper(self, request):
        submitted = _submitted.pop(id(request), None)
        if submitted is not None:
            now = time.perf_counter()
            SPANS.append(
                ["net.queue_wait", submitted, now, None, threading.get_ident(), request.request_id, None]
            )
        return timed(self, request)

    return wrapper


def _wal_sync(original):
    """``WriteAheadLog.sync``, a span whose extra is the fsyncs it issued
    (the WAL's own ``durability.wal.fsyncs`` counter)."""
    fsyncs = get_registry().counter("durability.wal.fsyncs")

    def counted(self):
        before = fsyncs.value
        original(self)
        return fsyncs.value - before

    timed = _span("durability.sync", counted, extra=lambda args, issued: issued)

    @functools.wraps(original)
    def wrapper(self):
        timed(self)

    return wrapper


def _submit(original):
    @functools.wraps(original)
    def wrapper(self, request):
        _submitted[id(request)] = time.perf_counter()
        return original(self, request)

    return wrapper


def _rid_payload(args):
    payload = args[0]
    return payload.get("id") if isinstance(payload, dict) else None


def _size(args, result):
    return len(args[1])


def _rounds(args, result):
    return result[1].get("rounds") if isinstance(result, tuple) else None


#: (module, attribute path, span name, request-id getter, extra getter)
WRAPS = (
    ("repro.net.server", "request_from_dict", "net.decode", _rid_payload, None),
    ("repro.service.requests", "Response.to_dict", "net.encode", lambda a: a[0].request_id, None),
    ("repro.net.tenants", "Tenant._serve_batch", "net.batch", None, _size),
    ("repro.net.tenants", "Tenant._serve_batch_durable", "net.batch", None, _size),
    ("repro.service.engine", "AssignmentEngine.journal_query", "engine.journal", None, None),
    ("repro.service.engine", "AssignmentEngine.evaluate", "engine.evaluate", None, None),
    ("repro.service.engine", "AssignmentEngine.stats", "engine.stats", None, None),
    ("repro.service.engine", "AssignmentEngine.add_paper", "engine.add_paper", None, None),
    ("repro.service.engine", "AssignmentEngine.withdraw_reviewer", "engine.withdraw_reviewer", None, None),
    ("repro.service.engine", "AssignmentEngine.update_bids", "engine.update_bids", None, None),
    ("repro.service.engine", "AssignmentEngine.solve", "engine.solve", None, None),
    ("repro.service.engine", "lowest_coverage_score", "core.lowest_coverage", None, None),
    ("repro.service.cache", "ScoreMatrixCache.matrix", "cache.matrix", None, None),
    ("repro.service.cache", "ScoreMatrixCache.top_reviewers", "cache.top_reviewers", None, None),
    ("repro.jra.base", "JRASolver.solve", "jra.solve", None, None),
    ("repro.cra.sra", "StochasticRefiner.refine", "cra.refine", None, _rounds),
    ("repro.cra.local_search", "LocalSearchRefiner.refine", "cra.refine", None, None),
    ("repro.core.problem", "WGRAPProblem.assignment_score", "core.assignment_score", None, None),
    ("repro.core.problem", "WGRAPProblem.dense_view", "core.dense_view", None, None),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.append", lambda a: a[1].request.get("id"), None),
    ("repro.durability.journal", "TenantJournal.checkpoint", "durability.checkpoint", None, None),
    ("repro.durability.journal", "TenantJournal.recover", "durability.recover", None, None),
)
#: modules that bind ``solve_capacitated_assignment`` by name
LAP_MODULES = ("repro.assignment.transportation", "repro.cra.sdga", "repro.cra.sra", "repro.cra.repair")


def install() -> None:
    for module_name, path, name, rid, extra in WRAPS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, _span(name, getattr(owner, attr), rid, extra))
    from repro.cra.base import CRASolver
    from repro.cra.sdga import StageDeepeningGreedySolver
    from repro.durability.wal import WriteAheadLog
    from repro.net.tenants import Tenant
    from repro.service.session import EngineSession

    # Only the SDGA base stage of the refined solvers is "cra.base".
    StageDeepeningGreedySolver.solve = _span("cra.base", CRASolver.solve)
    EngineSession.dispatch = _dispatch(EngineSession.dispatch)
    Tenant.submit = _submit(Tenant.submit)
    WriteAheadLog.sync = _wal_sync(WriteAheadLog.sync)
    lap = None
    for module_name in LAP_MODULES:
        module = importlib.import_module(module_name)
        if lap is None:
            lap = _span("assignment.lap", module.solve_capacitated_assignment)
        module.solve_capacitated_assignment = lap


def dump(path: str) -> None:
    spans = [span for span in list(SPANS) if span[2] is not None]
    index = {id(span): i for i, span in enumerate(spans)}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for span in spans:
            parent = index.get(id(span[3])) if span[3] is not None else None
            handle.write(json.dumps([span[0], span[1], span[2], parent, span[4], span[5], span[6]]))
            handle.write("\n")
    os.replace(tmp, path)


def main() -> int:
    out = os.environ["PERFBENCH_SPANS"]
    install()
    signal.signal(signal.SIGHUP, lambda *_: dump(out))
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
