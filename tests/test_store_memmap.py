"""The memmap block score store vs a plain RAM ndarray — bitwise.

:class:`repro.store.blocks.MemmapScoreStore` replaces the in-RAM score
matrix for out-of-core engines, so it is held to an exact oracle: every
mutation sequence (column appends, row drops, and either of them derived
from an older view rather than the tip) applied to the blocks must leave
every returned view bitwise-identical to the same sequence applied to a
``numpy`` array — including after closing the store and reopening it from
``meta.json`` mid-sequence — and must never disturb an older view.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import MemmapScoreStore


def _rng(seed=0):
    return np.random.default_rng(seed)


def _fresh(tmp_path, rows=6, cols=5, block_cols=2, seed=0):
    oracle = _rng(seed).random((rows, cols))
    store = MemmapScoreStore(tmp_path / "blocks", block_cols=block_cols)
    store.write_all(oracle.copy())
    return store, oracle


class TestBasicOps:
    def test_write_all_round_trips_bitwise(self, tmp_path):
        store, oracle = _fresh(tmp_path)
        np.testing.assert_array_equal(np.asarray(store.view()), oracle)
        assert store.rows == 6 and store.cols == 5

    def test_append_column_matches_concatenate(self, tmp_path):
        store, oracle = _fresh(tmp_path)
        view = store.view()
        for i in range(5):  # crosses the block_cols=2 capacity boundary twice
            column = _rng(100 + i).random(store.rows)
            view = store.append_column(view, column.copy())
            oracle = np.concatenate([oracle, column[:, None]], axis=1)
            np.testing.assert_array_equal(np.asarray(view), oracle)
            assert not view.flags.writeable

    def test_drop_row_matches_delete(self, tmp_path):
        store, oracle = _fresh(tmp_path)
        view = store.view()
        for pick in (3, 0, -1):
            row = pick if pick >= 0 else store.rows - 1
            view = store.drop_row(view, row)
            oracle = np.delete(oracle, row, axis=0)
            np.testing.assert_array_equal(np.asarray(view), oracle)

    def test_append_to_an_older_view_starts_a_generation(self, tmp_path):
        store, oracle = _fresh(tmp_path, block_cols=8)
        parent = store.view()
        first = store.append_column(parent, np.ones(store.rows))
        generation = store.generation
        second = store.append_column(parent, np.zeros(store.rows))
        assert store.generation > generation
        np.testing.assert_array_equal(
            np.asarray(first), np.concatenate([oracle, np.ones((6, 1))], axis=1)
        )
        np.testing.assert_array_equal(
            np.asarray(second), np.concatenate([oracle, np.zeros((6, 1))], axis=1)
        )

    def test_out_of_core_build_matches_scorer(self, tmp_path):
        rows, cols = 7, 11
        dense = _rng(3).random((rows, cols))
        store = MemmapScoreStore(tmp_path / "b", block_cols=3)
        view = store.build(rows, cols, lambda start, stop: dense[:, start:stop])
        np.testing.assert_array_equal(np.asarray(view), dense)
        # the build walked ceil(11/3) = 4 blocks
        assert store.block_writes >= 4

    def test_drop_row_rolls_the_generation_file(self, tmp_path):
        store, _ = _fresh(tmp_path)
        before = store.generation
        store.drop_row(store.view(), 0)
        assert store.generation > before

    def test_appends_extend_in_place_within_capacity(self, tmp_path):
        store, _ = _fresh(tmp_path, block_cols=8)
        generation = store.generation
        store.append_column(store.view(), np.zeros(store.rows))
        assert store.generation == generation  # reserved capacity, no copy


class TestReopen:
    def test_reopen_mid_sequence_is_bitwise(self, tmp_path):
        directory = tmp_path / "blocks"
        store, oracle = _fresh(tmp_path, block_cols=3)
        column = _rng(50).random(store.rows)
        store.append_column(store.view(), column.copy())
        oracle = np.concatenate([oracle, column[:, None]], axis=1)
        store.flush()
        store.close()

        reopened = MemmapScoreStore(directory, block_cols=3)
        assert (reopened.rows, reopened.cols) == oracle.shape
        np.testing.assert_array_equal(np.asarray(reopened.view()), oracle)
        # continue the sequence on the reopened store
        view = reopened.drop_row(reopened.view(), 1)
        oracle = np.delete(oracle, 1, axis=0)
        column = _rng(51).random(reopened.rows)
        view = reopened.append_column(view, column.copy())
        oracle = np.concatenate([oracle, column[:, None]], axis=1)
        np.testing.assert_array_equal(np.asarray(view), oracle)

    def test_meta_survives_for_cold_readers(self, tmp_path):
        store, oracle = _fresh(tmp_path)
        store.flush()
        description = store.describe()
        assert description["rows"] == 6 and description["cols"] == 5
        assert description["bytes_mapped"] == 6 * store.capacity * 8


@st.composite
def mutation_sequences(draw):
    """Random op sequences; values come from a seeded rng, not Hypothesis,
    so shrinking explores the *structure* (op order) rather than floats.
    ``append-old``/``drop-old`` derive from an earlier view, not the tip."""
    return draw(
        st.lists(
            st.sampled_from(["append", "drop", "append-old", "drop-old", "reopen"]),
            min_size=1,
            max_size=12,
        )
    )


@settings(max_examples=60, deadline=None)
@given(ops=mutation_sequences(), data=st.data())
def test_random_mutation_sequences_match_ram(tmp_path_factory, ops, data):
    tmp_path = tmp_path_factory.mktemp("memmap-prop")
    oracle = _rng(7).random((5, 4))
    store = MemmapScoreStore(tmp_path / "blocks", block_cols=2)
    #: every (view, oracle) pair handed out so far; none may ever change
    history = [(store.write_all(oracle.copy()), oracle)]
    fill = _rng(8)
    for op in ops:
        if op == "reopen":  # reopen from disk mid-sequence
            store.flush()
            store.close()
            store = MemmapScoreStore(tmp_path / "blocks", block_cols=2)
            history.append((store.view(), history[-1][1]))
        else:
            pick = -1
            if op.endswith("-old"):
                pick = data.draw(st.integers(0, len(history) - 1), label="parent")
            parent, expected = history[pick]
            if op.startswith("append"):
                column = fill.random(parent.shape[0])
                view = store.append_column(parent, column.copy())
                expected = np.concatenate([expected, column[:, None]], axis=1)
            else:
                if parent.shape[0] <= 1:
                    continue
                row = data.draw(st.integers(0, parent.shape[0] - 1), label="row")
                view = store.drop_row(parent, row)
                expected = np.delete(expected, row, axis=0)
            history.append((view, expected))
        np.testing.assert_array_equal(np.asarray(store.view()), history[-1][1])
        for view, expected in history:
            np.testing.assert_array_equal(np.asarray(view), expected)
    store.close()
