"""One benchmark run: set up, warm, time the phases, probe, crash, recover, check."""

from __future__ import annotations

import asyncio
import shutil
import signal
import time
from pathlib import Path
from typing import Any

from repro.data.io import save_problem

from perfbench import layers, oracle
from perfbench.client import ServerProcess, close_all, connect, run_phase
from perfbench.measures import due_latencies, median, rate, tail
from perfbench.speed import REFERENCE_S, Speed, scale
from perfbench.workloads import (
    CRA_SOLVE,
    MUTATION_KINDS,
    READ_MIX,
    Phase,
    ScriptWriter,
    WINDOW,
    Workload,
    check_feasible,
    warmup_requests,
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 4
#: crash recoveries per run, each from a copy of the same crashed state
RECOVERIES = 3
#: initial assignment of every tenant
INITIAL_SOLVER = "Greedy"
#: a run is not used if its client process was busier than this share of
#: one core, or if its paced generator fell behind: lateness p99 (tail rule)
#: above one inter-send period of the paced rate
MAX_CLIENT_CPU = 0.8

UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "p50_ms": "ms",
    "journal_p50_ms": "ms",
    "evaluate_p50_ms": "ms",
    "mutation_p50_ms": "ms",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
#: measured and printed in the report line (scaled, and raw under ``raw``)
#: but not a result metric: over sets of five ``write_mix`` runs its
#: quartile spread was 0.23-0.35, above the largest bound a gate may use
REPORT_ONLY = {"recovery_s": "s"}


class Run:
    """One server lifetime (plus its set-ups and recoveries) over one script."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, root: Path, work: Path, speed: Speed):
        self.w = workload
        self.trace = trace
        self.root = root
        self.work = work
        self.speed = speed
        work.mkdir(parents=True)
        self.writer = ScriptWriter(workload, seed, seconds)
        self.phases = self.writer.phases()
        self.probe_before, self.probe_after = self.writer.probes()
        self.probes = [p for p in (self.probe_before, self.probe_after) if p is not None]
        self.paths = {}
        for name, problem in self.writer.problems.items():
            self.paths[name] = str(work / f"{name}.json")
            save_problem(problem, self.paths[name])
        self.records: list[dict] = []  # everything sent to the measured server
        self.failed_elsewhere = 0
        self.attempted_elsewhere = 0
        self.servers: list[ServerProcess] = []
        self.setups: list[dict[str, float]] = []
        self.report: dict[str, Any] = {"workload": workload.name, "seed": seed, "traced": trace}

    def check_script(self) -> None:
        in_order = [self.probe_before, *self.phases, self.probe_after]
        problems = check_feasible(self.writer, [p for p in in_order if p is not None])
        if problems:
            raise RuntimeError(f"infeasible script: {problems[:3]}")

    # ------------------------------------------------------------------
    def _server(self, tag: str, wal: Path | None) -> ServerProcess:
        args = ["--wal-dir", str(wal)] if wal is not None else []
        spans = self.work / f"spans-{tag}.jsonl" if self.trace else None
        server = ServerProcess(self.root, self.work, args, self.speed, spans)
        self.servers.append(server)
        return server

    async def _call(self, conn, request: dict, keep: list | None) -> dict:
        record = {"request": request, "phase": "control", "due": time.perf_counter()}
        await conn.send(record)
        if keep is not None:
            keep.append(record)
        else:
            self.attempted_elsewhere += 1
            self.failed_elsewhere += not record["response"].get("ok")
        return record

    async def _create_tenants(self, conn, keep: list | None) -> tuple[float, float]:
        started = time.perf_counter()
        for spec in self.w.tenants:
            record = await self._call(
                conn,
                {"kind": "create_tenant", "tenant": spec.name, "problem_path": self.paths[spec.name], "warm": True},
                None,
            )
            if not record["response"].get("ok"):
                raise RuntimeError(f"create_tenant failed: {record['response']}")
        created = time.perf_counter()
        for spec in self.w.tenants:
            request = {"kind": "solve", "solver": INITIAL_SOLVER, "tenant": spec.name, "id": f"initial-{spec.name}"}
            record = await self._call(conn, request, keep)
            if not record["response"].get("ok"):
                raise RuntimeError(f"initial solve failed: {record['response']}")
        return created - started, time.perf_counter() - created

    async def setup(self):
        """Set up ``SETUPS`` times; keep the last server for the run."""
        for index in range(SETUPS):
            wal = self.work / f"wal-{index}" if self.w.durable else None
            server = self._server(f"setup{index}", wal)
            before = self.speed.sample()
            started = time.perf_counter()
            spawn = server.start()
            conns = await connect(server)
            keep = self.records if index == SETUPS - 1 else None
            tenants, solve = await self._create_tenants(conns[0], keep)
            elapsed = time.perf_counter() - started
            self.setups.append(
                {"setup_s": elapsed, "scale": scale([before, self.speed.sample()]),
                 "spawn_s": spawn, "tenants_s": tenants, "first_solve_s": solve}
            )
            if index < SETUPS - 1:
                await close_all(conns)
                server.kill()
        self.wal = wal
        return server, conns

    async def _snapshot(self, conns) -> dict[str, Any]:
        """Counters read over the wire (kept in the replayed history)."""
        snap: dict[str, Any] = {"stats": {}}
        for spec in self.w.tenants:
            record = await self._call(conns[0], {"kind": "stats", "tenant": spec.name, "id": f"snap-{len(self.records)}"}, self.records)
            snap["stats"][spec.name] = record["response"]["payload"]
        record = await self._call(conns[0], {"kind": "metrics", "tenant": self.w.tenants[0].name, "id": f"snap-{len(self.records)}"}, self.records)
        snap["metrics"] = record["response"]["payload"]["metrics"]
        return snap

    async def main(self) -> dict[str, Any]:
        """Run everything; returns the result without its metrics.

        The end-to-end metrics are left in ``self.metrics`` (scaled to the
        reference speed; the raw ones go to the report) and what the
        per-layer table needs in attributes read by :mod:`perfbench.layers`.
        """
        server, conns = await self.setup()
        warmup = Phase("warmup", "closed", warmup_requests(self.phases + self.probes), window=WINDOW)
        self.records += await run_phase(conns, warmup, self.speed)
        timed: dict[str, list[dict]] = {}
        if self.probe_before is not None:
            timed["probe"] = await run_phase(conns, self.probe_before, self.speed)
            self.records += timed["probe"]
        self.before = await self._snapshot(conns)
        wall0, cpu0, client0 = time.perf_counter(), server.cpu_seconds(), time.process_time()
        speed_wall0, speed_cpu0 = self.speed.wall, self.speed.cpu
        for phase in self.phases:
            timed[phase.name] = await run_phase(conns, phase, self.speed)
            self.records += timed[phase.name]
        # Speed sampling is the client's own work, not the request path's.
        wall = time.perf_counter() - wall0 - (self.speed.wall - speed_wall0)
        client_cpu = time.process_time() - client0 - (self.speed.cpu - speed_cpu0)
        server_cpu = server.cpu_seconds() - cpu0
        self.after = await self._snapshot(conns)
        self.spans = await self._collect_spans(server) if self.trace else []
        if self.probe_after is not None:
            after = await run_phase(conns, self.probe_after, self.speed)
            timed["probe"] = timed.get("probe", []) + after
            self.records += after
        final = {}
        for spec in self.w.tenants:
            record = await self._call(conns[0], {"kind": "evaluate", "include_ratio": False, "tenant": spec.name, "id": f"final-{spec.name}"}, self.records)
            final[spec.name] = record
        final_stats = (await self._snapshot(conns))["stats"] if self.w.durable else None
        peak_rss = server.peak_rss_mb()
        await close_all(conns)
        server.kill()
        recovery, recovered = await self.recover(final, final_stats)

        mismatches = self.check(recovered)
        self.timed = timed
        measured_requests = sum(len(timed[p.name]) for p in self.phases)
        self.server_cpu_per_request = server_cpu / measured_requests
        self.metrics = self.end_to_end(timed, recovery, peak_rss, scaled=True)
        self.report["raw"] = {
            name: round(value, 6)
            for name, value in self.end_to_end(timed, recovery, peak_rss, scaled=False).items()
        }
        self.report["phases"] = {
            name: {
                "sent": len(records),
                "ok": sum(1 for r in records if r["response"].get("ok")),
                "failed": sum(1 for r in records if not r["response"].get("ok")),
            }
            for name, records in timed.items()
        }
        self.report["report_only"] = {
            name: {"value": round(self.metrics[name], 6), "unit": unit} for name, unit in REPORT_ONLY.items()
        }
        self.report["tails"] = self.tails(timed)
        self.report["setups_s"] = [round(s["setup_s"], 4) for s in self.setups]
        self.report["recoveries_s"] = [round(t, 4) for t, _ in recovery]
        samples = self.speed.samples
        self.report["speed"] = {
            "reference_s": REFERENCE_S,
            "samples": len(samples),
            "median_s": round(median(samples), 6),
            "min_s": round(min(samples), 6),
            "max_s": round(max(samples), 6),
        }
        self.report.update(
            {
                "client_cpu_share": round(client_cpu / wall, 4),
                "server_cpu_ms_per_request": round(1000 * self.server_cpu_per_request, 4),
                "capped_withdrawals": self.writer.capped_withdrawals,
                "mismatches": mismatches[:10],
            }
        )
        all_records = self.records + [r for attempt in recovered for r in attempt]
        attempted = len(all_records) + self.attempted_elsewhere
        failed = sum(1 for r in all_records if not r["response"].get("ok")) + self.failed_elsewhere
        self.report["valid"] = self._validity(client_cpu / wall)
        return {"correct": not mismatches and failed == 0, "attempted": attempted, "failed": failed}

    # ------------------------------------------------------------------
    async def _collect_spans(self, server: ServerProcess) -> list:
        path = server.spans
        path.unlink(missing_ok=True)
        server.signal(signal.SIGHUP)
        deadline = time.perf_counter() + 30
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("the traced server wrote no spans")
            await asyncio.sleep(0.02)
        return layers.load_spans(path)

    async def recover(self, final: dict, final_stats: dict | None):
        """SIGKILL has happened: restart ``RECOVERIES`` times from the same
        crashed state and time each restart's first correct answer."""
        self.recovery_problems: list[str] = []
        self.recover_spans: list = []
        crashed = self.work / "wal-crashed"
        if self.w.durable:
            shutil.copytree(self.wal, crashed)
        times, attempts = [], []
        for index in range(RECOVERIES):
            wal = None
            if self.w.durable:
                wal = self.work / f"wal-recovery{index}"
                shutil.copytree(crashed, wal)
            before = self.speed.sample()
            elapsed, records, server = await self._recover_once(index, wal, final, final_stats)
            times.append((elapsed, scale([before, self.speed.sample()])))
            attempts.append(records)
            if self.trace:
                self.recover_spans += await self._collect_spans(server)
            server.kill()
        return times, attempts

    async def _recover_once(self, index: int, wal, final: dict, final_stats: dict | None):
        server = self._server(f"recovery{index}", wal)
        started = time.perf_counter()
        server.start()
        conns = await connect(server, 1)
        records: list[dict] = []
        if self.w.durable:
            missing = {s.name for s in self.w.tenants} - set(server.listening.get("recovered", []))
            if missing:
                raise RuntimeError(f"tenants not recovered: {sorted(missing)}")
        else:
            await self._create_tenants(conns[0], records)
        answers = {}
        for spec in self.w.tenants:
            request = {"kind": "evaluate", "include_ratio": False, "tenant": spec.name, "id": f"recovered-{spec.name}"}
            answers[spec.name] = await self._call(conns[0], request, records)
        elapsed = time.perf_counter() - started
        if self.w.durable:
            for spec in self.w.tenants:
                if oracle.stable(answers[spec.name]["response"]) != oracle.stable(final[spec.name]["response"]):
                    self.recovery_problems.append(f"{spec.name}: recovered evaluate differs from before the kill")
                request = {"kind": "stats", "tenant": spec.name, "id": f"recovered-stats-{spec.name}"}
                record = await self._call(conns[0], request, records)
                now, then = record["response"]["payload"]["engine"], final_stats[spec.name]["engine"]
                same = oracle.stable(record["response"]) == oracle.stable(
                    {"kind": "stats", "ok": True, "payload": final_stats[spec.name]}
                )
                if not same or now["cache"]["shape"] != then["cache"]["shape"]:
                    self.recovery_problems.append(f"{spec.name}: recovered stats differ from before the kill")
                # The delta block counts work done by this process (view
                # recompiles, delta applications, prune outcomes); a restarted
                # process starts it from zero, so it is reported, not gated.
                self.report["recovered_delta_equal"] = now["delta"] == then["delta"]
        await close_all(conns)
        return elapsed, records, server

    def check(self, attempts: list[list[dict]]) -> list[str]:
        mismatches = list(self.recovery_problems)
        for spec in self.w.tenants:
            mine = [r for r in self.records if r["response"].get("tenant") == spec.name]
            mismatches += oracle.replay(self.paths[spec.name], mine)
            if not self.w.durable:  # a cold reload answers like a fresh engine
                for records in attempts:
                    again = [r for r in records if r["response"].get("tenant") == spec.name]
                    mismatches += oracle.replay(self.paths[spec.name], again)
        return mismatches

    def _validity(self, client_share: float) -> bool:
        paced = [r for r in self.records if r["phase"].startswith("paced")]
        lateness = tail(due_latencies(paced)[1])[0] if paced else 0.0
        self.report["lateness_p99_ms"] = round(1000 * lateness, 4)
        behind = bool(paced) and lateness > 1.0 / self.w.paced_rate
        return not behind and client_share <= MAX_CLIENT_CPU

    # ------------------------------------------------------------------
    def _sources(self, timed) -> dict[str, list[dict]]:
        """Which records each latency and rate figure is taken from."""
        probe = timed["probe"]
        if self.w is CRA_SOLVE:
            cycles = timed["cycles"]
            journals = [r for r in probe if r["request"]["kind"] == "journal"]
            evaluates = [r for r in cycles + probe if r["request"]["kind"] == "evaluate"]
            rate_phase = latency_phase = cycles
        else:
            rate_phase, latency_phase = timed["capacity"], timed["paced"]
            journals = [r for r in latency_phase if r["request"]["kind"] == "journal"]
            evaluates = [r for r in latency_phase if r["request"]["kind"] == "evaluate"]
        mutations_from = {READ_MIX: probe, CRA_SOLVE: latency_phase + probe}.get(self.w, latency_phase)
        return {
            "rate": rate_phase,
            "p50_ms": latency_phase,
            "journal_p50_ms": journals,
            "evaluate_p50_ms": evaluates,
            "mutation_p50_ms": [r for r in mutations_from if r["request"]["kind"] in MUTATION_KINDS],
            "solves": [r for r in (latency_phase if self.w is CRA_SOLVE else probe) if r["request"]["kind"] == "solve"],
        }

    def end_to_end(self, timed, recovery: list[tuple[float, float]], peak_rss: float, scaled: bool) -> dict[str, float]:
        """The end-to-end metrics; ``scaled`` puts every time at the
        reference speed (:mod:`perfbench.speed`)."""
        sources = self._sources(timed)

        def factor(record):
            return record["scale"] if scaled else 1.0

        def ms(records):
            return [1000 * x * factor(r) for x, r in zip(due_latencies(records)[0], records)]

        def round_trip(record):
            return (record["recv"] - record["sent"]) * factor(record)

        metrics = {
            "setup_s": median(s["setup_s"] * (s["scale"] if scaled else 1.0) for s in self.setups),
            "throughput_rps": rate(sources["rate"], scaled),
        }
        for name in ("p50_ms", "journal_p50_ms", "evaluate_p50_ms", "mutation_p50_ms"):
            metrics[name] = median(ms(sources[name]))
        solves = sources["solves"]
        if self.w is CRA_SOLVE:  # each cycle's two solves, SDGA-SRA then SDGA-LS
            metrics["solve_s"] = median(round_trip(a) + round_trip(b) for a, b in zip(solves[::2], solves[1::2]))
        else:
            metrics["solve_s"] = median(round_trip(r) for r in solves)
        metrics["recovery_s"] = median(t * (f if scaled else 1.0) for t, f in recovery)
        metrics["peak_rss_mb"] = peak_rss
        return metrics

    def tails(self, timed) -> dict[str, dict[str, float]]:
        """Reported, not gated: the tail rule's value (scaled), percentile and count.

        On a 2-core box the 11th-largest of a few hundred latencies spread
        far wider across runs than any bound a regression gate can use.
        """
        sources = self._sources(timed)
        out = {}
        for name in ("p50_ms", "journal_p50_ms", "mutation_p50_ms"):
            records = sources[name]
            value, pct, n = tail(1000 * x * r["scale"] for x, r in zip(due_latencies(records)[0], records))
            out[name.replace("p50", "p99")] = {"value": round(value, 4), "percentile": round(pct, 2), "n": n}
        return out


async def _drive(bench: Run) -> dict[str, Any]:
    bench.check_script()
    try:
        return await bench.main()
    finally:
        for server in bench.servers:
            server.kill()


async def run(workload: Workload, seed: int, seconds: int, trace: bool, root: Path, work: Path):
    """Returns ``(result, report)``.

    ``trace`` adds a second, traced run of the same script after the
    untraced one; its per-layer metrics are the result, and its tracing
    overhead is its end-to-end figures against the untraced run's.
    """
    plain = Run(workload, seed, seconds, False, root, work / "plain", Speed())
    result = await _drive(plain)
    if not trace:
        result["metrics"] = {name: {"value": plain.metrics[name], "unit": unit} for name, unit in UNITS.items()}
        return result, plain.report
    traced = Run(workload, seed, seconds, True, root, work / "traced", Speed())
    second = await _drive(traced)
    combined = {
        "correct": result["correct"] and second["correct"],
        "attempted": result["attempted"] + second["attempted"],
        "failed": result["failed"] + second["failed"],
        "metrics": layers.per_layer(traced, plain.metrics),
    }
    report = {"valid": plain.report["valid"] and traced.report["valid"], "untraced": plain.report, "traced": traced.report}
    return combined, report
