"""Blocked passes against the one-row and one-sequence code.

``LogBatch.errors``, ``enrich_batch``, ``pooled_layout`` and the metrics run
a block of ``BLOCK_ROWS`` rows at a time (``enrich_batch`` a block of whole
sequences). The log below spans more than three blocks; one sequence
straddles the first block edge and is longer than a block, and the next
straddles the second edge. Each blocked pass must give what the code for a
single row (or a single sequence) gives, bit for bit, and every metric the
same bits at any block size. (Apply is left out of the last check: it lays
out each of its blocks at that block's own width, as ``pooled_layout`` of
those rows alone would.)
"""

from dataclasses import replace

import numpy as np
import pytest

from seqcal import records
from seqcal.features import enrich, enrich_batch
from seqcal.metrics import PartitionSpec, ece, head_tail_curve, nll, partitioned_metric, weighted_ece
from seqcal.records import BLOCK_ROWS, LogBatch, SequenceRecord, TokenRecord, blocks, pooled_layout

VOCAB, EOS_ID = 50, 2
# the second sequence covers rows 700..2023: the first edge, and more than a block
LENGTHS = [700, BLOCK_ROWS + 300, 40]


def sequence(rng, seq: int, steps: int) -> list[TokenRecord]:
    """Top-K steps, K in 1..12, with EOS listed or not, the gold token listed
    or in the tail, and attention over one source length."""
    width = int(rng.integers(3, 11))
    rows = []
    for t in range(1, steps + 1):
        k = int(rng.integers(1, 13))
        ids = rng.choice(VOCAB, k, replace=False)
        tail = float(rng.uniform(0.0, 0.3))
        probs = rng.dirichlet(np.full(k, 0.5)) * (1.0 - tail)
        gold = int(ids[rng.integers(k)]) if rng.random() < 0.7 else int(rng.integers(VOCAB))
        rows.append(TokenRecord(
            seq_id=f"s{seq}", t=t, vocab_size=VOCAB, eos_id=EOS_ID, gold_id=gold,
            entries=tuple(zip(ids.tolist(), probs.tolist())), rest_mass=tail,
            attention=tuple(rng.dirichlet(np.full(width, 0.5)).tolist()),
        ))
    return rows


@pytest.fixture(scope="module")
def steps() -> list[list[TokenRecord]]:
    rng = np.random.default_rng(20)
    lengths = list(LENGTHS)
    while sum(lengths) < 3 * BLOCK_ROWS + 200:
        lengths.append(int(rng.integers(5, 60)))
    return [sequence(rng, seq, n) for seq, n in enumerate(lengths)]


@pytest.fixture(scope="module")
def batch(steps) -> LogBatch:
    return LogBatch.from_records(row for seq in steps for row in seq)


def test_the_log_spans_the_block_edges(batch):
    assert len(batch) > 3 * BLOCK_ROWS
    assert len(list(blocks(len(batch)))) >= 4
    starts = batch.seq_starts
    assert starts[1] < BLOCK_ROWS < starts[2] and starts[2] - starts[1] > BLOCK_ROWS
    assert starts[2] < 2 * BLOCK_ROWS < starts[3]
    whole = list(blocks(len(batch), starts))
    assert whole[0] == (0, int(starts[1])) and whole[1] == (int(starts[1]), int(starts[2]))
    assert all(lo in starts and hi in starts for lo, hi in whole)


BAD = {  # a defect the checks name, by the field they name
    "gold_id": lambda r: replace(r, gold_id=VOCAB),
    "entries": lambda r: replace(r, entries=r.entries + (r.entries[0],)),
    "rest_mass": lambda r: replace(r, rest_mass=-0.5),
    "attention": lambda r: replace(r, attention=(0.7,) * len(r.attention)),
    "t": lambda r: replace(r, t=0),
}


def test_errors_equal_the_one_row_checks(batch):
    rows = list(batch)
    planted = [edge + side for edge in range(BLOCK_ROWS, len(rows), BLOCK_ROWS) for side in (-2, -1, 0, 1)]
    for k, row in enumerate(planted + [0, 5, len(rows) - 1]):
        rows[row] = list(BAD.values())[k % len(BAD)](rows[row])
    lines = range(1, len(rows) + 1)
    got = [(row, e.field, str(e)) for row, e in LogBatch.from_records(rows, lines=lines).errors()]
    want = [
        (row, e.field, str(e))
        for row, record in enumerate(rows)
        for _, e in LogBatch.from_records([record], lines=[row + 1]).errors()
    ]
    assert len(want) == len(planted) + 3
    assert got == want


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_enrich_batch_equals_enrich_of_each_sequence(steps, batch):
    enriched = enrich_batch(batch)
    want = LogBatch.from_records(
        step for seq in steps for step in enrich(SequenceRecord(seq[0].seq_id, tuple(seq))).steps)
    for name in ("entropy", "coverage", "cum_attention"):
        assert bits(getattr(enriched, name)) == bits(getattr(want, name)), name
    for name in ("has_cum", "cum_offsets", "has_features"):
        assert np.array_equal(getattr(enriched, name), getattr(want, name)), name


def widened(row: np.ndarray, listed: int, width: int, fill) -> np.ndarray:
    """A one-row layout's row at ``width``: its listed slots, padding, then its EOS and tail slots."""
    out = np.full(width, fill, dtype=row.dtype)
    out[:listed], out[-2:] = row[:listed], row[-2:]
    return out


def test_layout_rows_equal_one_row_layouts(batch):
    layout = pooled_layout(batch)
    width = layout.prob.shape[1]
    for i, record in enumerate(batch):
        one, k = pooled_layout([record]), len(record.entries)
        assert bits(layout.prob[i]) == bits(widened(one.prob[0], k, width, 0.0)), i
        assert bits(layout.mult[i]) == bits(widened(one.mult[0], k, width, 1.0)), i
        assert layout.mult[i, -1] == VOCAB - k - (EOS_ID not in dict(record.entries)), i
        assert np.array_equal(layout.ids[i], widened(one.ids[0], k, width, VOCAB)), i
        for column in ("gold", "eos"):
            c = int(getattr(one, column)[0])
            assert getattr(layout, column)[i] == (c if c < k else c + width - k - 2), (i, column)


def exact(value):
    """``value`` with every float and array replaced by its exact bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return exact(vars(value)) if hasattr(value, "__dict__") else value


def scores(batch: LogBatch) -> list:
    """Every metric, as exact bits."""
    fresh = replace(batch)  # no cached layout
    specs = (PartitionSpec.eos(), PartitionSpec.token(7), PartitionSpec.entropy(1.2), PartitionSpec.confidence(0.6))
    return exact([
        ece(fresh), weighted_ece(fresh), nll(fresh), head_tail_curve(fresh, [0.05, 0.5, 1.0]),
        [partitioned_metric(fresh, spec) for spec in specs],
    ])


@pytest.mark.parametrize("block_rows", [61, 1000, 10**6])
def test_every_metric_is_the_same_at_any_block_size(batch, block_rows, monkeypatch):
    want = scores(batch)
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    assert scores(batch) == want
