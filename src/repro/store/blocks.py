"""Block-aligned, memory-mapped score-matrix storage.

One :class:`MemmapScoreStore` owns a directory holding a single
column-major (Fortran-order) ``float64`` file of shape
``(rows, capacity)`` plus a small ``meta.json`` sidecar::

    blocks/
      meta.json           # {rows, cols, capacity, generation, block_cols}
      scores-000003.bin   # rows * capacity * 8 bytes, column-contiguous

A store bound to a problem chain (see
:meth:`repro.core.problem.WGRAPProblem.bind_score_store`) is that chain's
arena for the pair-score matrix: every problem of the chain holds a
read-only view of the mapped file.  Column-major layout makes a *column*
contiguous on disk, which matches both chain mutations and the per-paper
reads: appending a late paper writes one contiguous tail region, and a
per-paper shortlist reads one contiguous region.  Capacity grows in
blocks of ``block_cols`` columns so appends amortise to one
``ftruncate`` per block.

Only the chain's *tip* — the last view the store handed out — is
extended in place; its appends land beyond the region any older view
maps.  Everything else (full builds, reviewer-row drops, and appends to a
problem that is no longer the tip: a rolled-back withdrawal, a branched
chain) writes a **new generation file** from the parent's view, so every
older view keeps mapping its own, possibly unlinked, file bitwise-intact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.trace import get_tracer

TRACER = get_tracer()

__all__ = ["MemmapScoreStore"]

_META_NAME = "meta.json"


class MemmapScoreStore:
    """A growable on-disk ``(rows, cols)`` float64 matrix, block-aligned.

    The store starts empty (``allocate``/``write_all``/``build`` create
    the first generation) and afterwards supports exactly the mutations a
    problem chain makes: ``append_column`` and ``drop_row``, each derived
    from a parent view.  All block traffic is counted so the
    observability layer can report reads, writes and mapped bytes.
    """

    def __init__(self, directory: str | Path, block_cols: int = 64) -> None:
        self.directory = Path(directory)
        if block_cols < 1:
            raise ConfigurationError("block_cols must be at least 1")
        self.block_cols = int(block_cols)
        self.rows = 0
        self.cols = 0
        self.capacity = 0
        self.generation = 0
        self._map: np.memmap | None = None
        #: the read-only view last handed out (the chain's tip)
        self._tip: np.memmap | None = None
        self.block_reads = 0
        self.block_writes = 0
        self.appends = 0
        self.drops = 0
        meta_path = self.directory / _META_NAME
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            self.rows = int(meta["rows"])
            self.cols = int(meta["cols"])
            self.capacity = int(meta["capacity"])
            self.generation = int(meta["generation"])
            self.block_cols = int(meta.get("block_cols", self.block_cols))
            if self.rows and self.capacity:
                self._map = np.memmap(
                    self._data_path(),
                    dtype=np.float64,
                    mode="r+",
                    shape=(self.rows, self.capacity),
                    order="F",
                )

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    def _data_path(self, generation: int | None = None) -> Path:
        gen = self.generation if generation is None else generation
        return self.directory / f"scores-{gen:06d}.bin"

    def _round_up(self, cols: int) -> int:
        blocks = max(1, -(-int(cols) // self.block_cols))
        return blocks * self.block_cols

    def _save_meta(self) -> None:
        meta = {
            "rows": self.rows,
            "cols": self.cols,
            "capacity": self.capacity,
            "generation": self.generation,
            "block_cols": self.block_cols,
            "dtype": "float64",
        }
        tmp = self.directory / (_META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
        os.replace(tmp, self.directory / _META_NAME)

    @property
    def bytes_mapped(self) -> int:
        return self.rows * self.capacity * 8

    # ------------------------------------------------------------------
    # Allocation and full builds
    # ------------------------------------------------------------------
    def _allocate(self, rows: int, cols: int) -> np.memmap:
        """Start a fresh zero-filled generation sized for ``(rows, cols)``.

        The previous generation file (if any) is unlinked, but any live
        memmap view of it keeps it readable until the view is collected.
        """
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"cannot allocate a ({rows}, {cols}) score block file"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        old = self._data_path() if self._map is not None else None
        self.generation += 1
        self.rows = int(rows)
        self.cols = int(cols)
        self.capacity = self._round_up(cols)
        path = self._data_path()
        with open(path, "wb") as handle:
            handle.truncate(self.rows * self.capacity * 8)
        self._map = np.memmap(
            path, dtype=np.float64, mode="r+", shape=(self.rows, self.capacity), order="F"
        )
        self._tip = None
        self._save_meta()
        if old is not None:
            Path(old).unlink(missing_ok=True)
        return self._map

    def write_all(self, matrix: np.ndarray) -> np.memmap:
        """Copy a whole ``(rows, cols)`` matrix into a fresh generation."""
        matrix = np.asarray(matrix, dtype=np.float64)
        with TRACER.span(
            "store.block_io", op="write_all", rows=int(matrix.shape[0]),
            cols=int(matrix.shape[1]),
        ):
            target = self._allocate(matrix.shape[0], matrix.shape[1])
            for start in range(0, self.cols, self.block_cols):
                stop = min(start + self.block_cols, self.cols)
                target[:, start:stop] = matrix[:, start:stop]
                self.block_writes += 1
        return self.view()

    def build(
        self, rows: int, cols: int, scorer: Callable[[int, int], np.ndarray]
    ) -> np.memmap:
        """Fill a fresh generation block-by-block from ``scorer(j0, j1)``.

        Peak RAM is one ``(rows, block_cols)`` block plus whatever the
        scorer holds — this is the out-of-core full build: the complete
        matrix only ever exists on disk.
        """
        with TRACER.span("store.block_io", op="build", rows=rows, cols=cols):
            target = self._allocate(rows, cols)
            for start in range(0, self.cols, self.block_cols):
                stop = min(start + self.block_cols, self.cols)
                target[:, start:stop] = scorer(start, stop)
                self.block_writes += 1
        return self.view()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self) -> np.memmap:
        """The current ``(rows, cols)`` slice of the mapped file, read-only."""
        if self._map is None:
            raise ConfigurationError("score block store has not been allocated")
        if self._tip is None:
            self.block_reads += 1
            tip = self._map[:, : self.cols]
            tip.setflags(write=False)
            self._tip = tip
        return self._tip

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def append_column(self, parent: np.ndarray, values: np.ndarray) -> np.memmap:
        """``parent`` with one column appended, as a read-only view.

        When ``parent`` is the tip the column goes into reserved capacity
        (or extends the *same* file by one block; older views map a prefix
        region the extension never touches).  Any other parent first gets
        a fresh generation holding a copy of its view.
        """
        column = np.asarray(values, dtype=np.float64).reshape(-1)
        if column.shape[0] != parent.shape[0]:
            raise ConfigurationError(
                f"appended column has {column.shape[0]} rows, matrix has "
                f"{parent.shape[0]}"
            )
        if self._map is None or parent is not self._tip:
            self.write_all(parent)
        with TRACER.span("store.block_io", op="append", col=self.cols):
            if self.cols == self.capacity:
                self.capacity += self.block_cols
                path = self._data_path()
                with open(path, "r+b") as handle:
                    handle.truncate(self.rows * self.capacity * 8)
                self._map = np.memmap(
                    path,
                    dtype=np.float64,
                    mode="r+",
                    shape=(self.rows, self.capacity),
                    order="F",
                )
            self._map[:, self.cols] = column
            self.cols += 1
            self._tip = None
            self.block_writes += 1
            self.appends += 1
            self._save_meta()
        return self.view()

    def drop_row(self, parent: np.ndarray, row: int) -> np.memmap:
        """``parent`` without one row, in a fresh generation, blockwise.

        No re-scoring happens (pair scores are independent across rows);
        the cost is one sequential read+write pass over the parent.  Older
        views keep mapping their generation untouched.
        """
        rows, cols = parent.shape
        if not 0 <= row < rows:
            raise ConfigurationError(f"row {row} out of range for {rows} rows")
        if rows == 1:
            raise ConfigurationError("cannot drop the only row of the score store")
        with TRACER.span("store.block_io", op="drop_row", row=row):
            target = self._allocate(rows - 1, cols)
            for start in range(0, cols, self.block_cols):
                stop = min(start + self.block_cols, cols)
                block = np.asarray(parent[:, start:stop])
                self.block_reads += 1
                target[:, start:stop] = np.delete(block, row, axis=0)
                self.block_writes += 1
            self.drops += 1
        return self.view()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push dirty mapped pages to disk."""
        if self._map is not None:
            self._map.flush()

    def close(self) -> None:
        self.flush()
        self._map = None
        self._tip = None

    def describe(self) -> dict[str, Any]:
        return {
            "directory": str(self.directory),
            "rows": self.rows,
            "cols": self.cols,
            "capacity": self.capacity,
            "generation": self.generation,
            "block_cols": self.block_cols,
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
            "appends": self.appends,
            "drops": self.drops,
            "bytes_mapped": self.bytes_mapped,
        }
