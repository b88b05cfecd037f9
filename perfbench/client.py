"""The benchmark client: server processes, connections and phase runners.

One process, one asyncio thread.  The server is a separate process
started through the real ``wgrap serve --tcp`` entry point
(``python -m repro.cli``), or through :mod:`perfbench.launcher` for a
traced run, and pinned to its own core (:mod:`perfbench.speed`).  Every request the client sends is kept as a record with its
due, send and receive times (``time.perf_counter``) and its response.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any

from perfbench.speed import Speed, scale
from perfbench.workloads import Phase

CONNECTIONS = 2
START_TIMEOUT = 60.0
#: seconds of a phase between two speed samples
SEGMENT_SECONDS = 0.5
_PR_SET_PDEATHSIG = 1


class ServerProcess:
    """One ``wgrap serve --tcp`` child process."""

    def __init__(
        self, root: Path, work: Path, args: list[str], speed: Speed, spans: Path | None = None
    ) -> None:
        self.root = root
        self.speed = speed
        self.work = work
        self.args = args
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.listening: dict[str, Any] = {}

    def start(self) -> float:
        """Spawn and wait for the ``listening`` line; returns the seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.spans is not None:
            env["PERFBENCH_SPANS"] = str(self.spans)
            entry = [sys.executable, str(self.root / "perfbench" / "launcher.py")]
        else:
            entry = [sys.executable, "-m", "repro.cli"]
        cmd = entry + ["serve", "--tcp", "--port", "0"] + self.args
        started = time.perf_counter()
        self.stderr = open(self.work / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=self.stderr,
            preexec_fn=self._preexec,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError(f"server did not start: {' '.join(cmd)}")
        self.listening = json.loads(line)
        return time.perf_counter() - started

    def _preexec(self) -> None:
        """Runs in the child before exec: pin it, and SIGKILL it if the
        client dies first."""
        self.speed.pin_server()
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)

    @property
    def address(self) -> tuple[str, int]:
        return self.listening["host"], int(self.listening["port"])

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self) -> None:
        """Crash-stop the server (SIGKILL) and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()
            self.stderr.close()


class Connection:
    """One JSON-lines TCP connection; responses arrive in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: deque = deque()
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
        return cls(reader, writer)

    def send(self, record: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.waiting.append((record, future))
        record["sent"] = time.perf_counter()
        self.writer.write(json.dumps(record["request"]).encode() + b"\n")
        return future

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            record, future = self.waiting.popleft()
            record["recv"] = now
            record["bytes"] = len(line)
            record["response"] = json.loads(line)
            future.set_result(record)
        while self.waiting:
            record, future = self.waiting.popleft()
            future.set_exception(ConnectionError("connection closed"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass


async def run_phase(conns: list[Connection], phase: Phase, speed: Speed) -> list[dict]:
    """Send one phase's requests; returns their records once all answered.

    The phase goes out in segments of about ``SEGMENT_SECONDS``.  Before
    the first and after each one, with every answer in and the server
    idle, the client samples the server core's speed; each record keeps
    its segment and that segment's time scale, from the samples on either
    side of it (:func:`perfbench.speed.scale`).
    """
    records = [{"request": r, "phase": phase.name} for r in phase.requests]
    send = {"serial": _serial, "paced": _paced, "closed": _closed}[phase.mode]
    before = speed.sample()
    done = segment = 0
    while done < len(records):
        taken = await send(conns, phase, records[done:])
        after = speed.sample()
        for record in records[done : done + taken]:
            record["segment"] = segment
            record["scale"] = scale([before, after])
        done += taken
        segment += 1
        before = after
    return records


async def _serial(conns: list[Connection], phase: Phase, records: list[dict]) -> int:
    """One request in flight on one connection, until the segment is over."""
    deadline = time.perf_counter() + SEGMENT_SECONDS
    for count, record in enumerate(records, 1):
        record["due"] = time.perf_counter()
        await conns[0].send(record)
        if time.perf_counter() >= deadline:
            return count
    return len(records)


async def _paced(conns: list[Connection], phase: Phase, records: list[dict]) -> int:
    """A segment's worth of requests on the schedule, due from its start."""
    mine = records[: max(1, round(phase.rate * SEGMENT_SECONDS))]
    start = time.perf_counter() + 0.02
    futures = []
    for i, record in enumerate(mine):
        record["due"] = start + i / phase.rate
        delay = record["due"] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(conns[i % len(conns)].send(record))
    await asyncio.gather(*futures)
    return len(mine)


async def _closed(conns: list[Connection], phase: Phase, records: list[dict]) -> int:
    """Each connection keeps ``phase.window`` requests in flight until the
    segment is over; requests are taken in script order."""
    queue = deque(records)
    deadline = time.perf_counter() + SEGMENT_SECONDS

    async def drive(conn: Connection) -> None:
        window = asyncio.Semaphore(phase.window)
        futures = []
        while True:
            await window.acquire()
            if not queue or time.perf_counter() >= deadline:
                break
            record = queue.popleft()
            record["due"] = time.perf_counter()
            future = conn.send(record)
            future.add_done_callback(lambda _f: window.release())
            futures.append(future)
        await asyncio.gather(*futures)

    await asyncio.gather(*(drive(conn) for conn in conns))
    return len(records) - len(queue)


async def connect(server: ServerProcess, count: int = CONNECTIONS) -> list[Connection]:
    host, port = server.address
    return [await Connection.open(host, port) for _ in range(count)]


async def close_all(conns: list[Connection]) -> None:
    for conn in conns:
        await conn.close()
