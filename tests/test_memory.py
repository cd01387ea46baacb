"""Peak memory of the metric and enrichment passes, and the bin-by-bin sums
they rest on.

The peaks are ``tracemalloc`` peaks over one call on a seeded NMT-shaped
batch (about 2,000 rows, top-10 entries over V=32000, attention over 20-40
source positions), with the batch's pooled layout already built. Each is
bounded by a multiple of the batch's own column bytes, set from the
bin-by-bin ``_finalize`` and the index-free ``enrich_batch`` with at most
25 % headroom (they measured 0.077, 0.56, 1.46 and 1.46). The earlier
passes, which stably sorted every item by bin and built int64 indices with
one entry per attention weight, peaked at 0.24, 2.26, 3.19 and 3.19: 1.8 to
3.3 times these bounds.

``_finalize`` sums each bin on its own; ``reference_finalize`` below is the
earlier version, which summed slices of the items sorted by bin. Both use
``math.fsum``, which rounds exactly, so they must agree bit for bit.

``write_log_file`` formats a block of rows at a time, so its peak must not
grow with the log: writing four times the rows may raise it by less than
the text of one block.

Teacher forcing keeps each step's nonzero entries, so ``toy gen`` at
V = 32000 never holds a dense (N, V) log.
"""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from seqcal.features import enrich_batch
from seqcal.metrics import PartitionSpec, _finalize, _top1, _weighted_items, ece, partitioned_metric, weighted_ece
from seqcal.records import _ROWS_PER_CHUNK, BinningConfig, LogBatch, ReliabilityHistogram, TokenRecord, write_log_file
from seqcal.toybench import ToyTaskSpec, build_true_model, emit_log_batch

VOCAB, TOP_K, EOS_ID = 32000, 10, 2


def sparse_batch(seed: int = 12, rows: int = 2000) -> LogBatch:
    """Whole sequences of top-K steps with Dirichlet attention over one
    source length per sequence, about ``rows`` steps in all."""
    rng = np.random.default_rng(seed)
    records = []
    seq = 0
    while len(records) < rows:
        width, steps = int(rng.integers(20, 41)), int(rng.integers(10, 40))
        for t in range(1, steps + 1):
            tail = rng.uniform(0.02, 0.25)
            head = np.sort(rng.dirichlet(np.full(TOP_K, 0.3)))[::-1] * (1.0 - tail)
            ids = rng.choice(np.arange(3, VOCAB), TOP_K, replace=False)
            if t == steps:
                ids[0] = EOS_ID
            gold = int(ids[rng.integers(TOP_K)]) if rng.random() > tail else int(rng.integers(3, VOCAB))
            records.append(TokenRecord(
                seq_id=f"s{seq}", t=t, vocab_size=VOCAB, eos_id=EOS_ID, gold_id=gold,
                entries=tuple(zip(ids.tolist(), head.tolist())), rest_mass=float(tail),
                attention=tuple(rng.dirichlet(np.full(width, 0.5)).tolist()),
            ))
        seq += 1
    return LogBatch.from_records(records)


@pytest.fixture(scope="module")
def batch():
    batch = sparse_batch()
    batch.layout  # built once, as every CLI command that scores a log builds it
    return batch


def column_bytes(batch: LogBatch) -> int:
    return sum(getattr(batch, f.name).nbytes for f in fields(batch) if isinstance(getattr(batch, f.name), np.ndarray))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, call, multiple", [
    ("ece", lambda b: ece(b), 0.085),
    ("weighted_ece", lambda b: weighted_ece(b), 0.68),
    ("enrich_batch", lambda b: enrich_batch(b), 1.8),
    ("entropy partition", lambda b: partitioned_metric(b, PartitionSpec.entropy(2.0)), 1.8),
])
def test_peak_is_a_bounded_multiple_of_the_input(batch, name, call, multiple):
    call(batch)  # any lazy set-up, such as a first call's imports, is not the pass's own memory
    peak = traced_peak(lambda: call(batch))
    assert peak <= multiple * column_bytes(batch), f"{name} peaked at {peak / column_bytes(batch):.3f}x the input"


def reference_finalize(bins, count, key, weight, conf, acc, gap):
    """The earlier ``_finalize``: fsum over slices of the items stably sorted by bin."""
    hist = ReliabilityHistogram.empty(bins.num_bins)
    hist.count = float(count)
    bin_idx = np.clip((np.asarray(key, dtype=np.float64) * bins.num_bins).astype(np.int64), 0, bins.num_bins - 1)
    order = np.argsort(bin_idx, kind="stable")
    present, starts = np.unique(bin_idx[order], return_index=True)
    spans = list(zip(starts, np.append(starts[1:], len(order))))
    sums = []
    for values in (gap, weight, conf, acc):
        ordered = np.asarray(values)[order]
        sums.append([math.fsum(ordered[lo:hi]) for lo, hi in spans])
    gap_sums, hist.weight[present], hist.confidence_sum[present], hist.accuracy_sum[present] = sums
    return math.fsum(abs(g) for g in gap_sums) / count, hist


def assert_same_bits(got, want):
    assert got[0].hex() == want[0].hex()
    for name in ("weight", "confidence_sum", "accuracy_sum"):
        assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes(), name
    assert got[1].count == want[1].count


@pytest.mark.parametrize("num_bins", [1, 7, 20, 300])
@pytest.mark.parametrize("case", ["random", "members", "empty bins", "edges and p = 1"])
def test_bin_by_bin_sums_equal_the_sorted_slices(num_bins, case):
    rng = np.random.default_rng(num_bins)
    n = 5000
    key = rng.random(n)
    if case == "empty bins":
        key = rng.choice([0.01, 0.5, 0.97], n) + rng.uniform(0, 1e-3, n)
    elif case == "edges and p = 1":
        key = rng.integers(0, num_bins + 1, n) / num_bins  # every bin edge, and 1.0 itself
    # magnitudes over many orders with both signs, so that the summation order would show
    weight, conf, acc, gap = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 6, n) for _ in range(4))
    keep = rng.random(n) < 0.3 if case == "members" else np.ones(n, dtype=bool)
    count = int(keep.sum())
    got = _finalize(BinningConfig(num_bins), count, key,
                    lambda mask: (weight[mask], conf[mask], acc[mask], gap[mask]), keep)
    want = reference_finalize(BinningConfig(num_bins), count, *(a[keep] for a in (key, weight, conf, acc, gap)))
    assert_same_bits(got, want)


def test_weighted_ece_equals_the_earlier_whole_array_items(batch):
    """The slot values computed one bin at a time equal those computed over
    every active slot at once and then sorted."""
    layout = batch.layout
    for members in (np.arange(len(batch)) % 3 == 0, batch.gold_id % 2 == 0, np.ones(len(batch), dtype=bool)):
        active = layout.active & members[:, None]
        row, col = np.nonzero(active)
        is_gold = (col == layout.gold[row]).astype(np.float64)
        p, mult = layout.prob[active], layout.mult[active]
        weight = mult * p
        count = int(members.sum())
        want = reference_finalize(BinningConfig(), count, p, weight, weight * p, p * is_gold, p * (is_gold - weight))
        got = _finalize(BinningConfig(), count, layout.prob, _weighted_items(layout), active)
        assert_same_bits(got, want)
    assert_same_bits(weighted_ece(batch), want)  # all rows, the last members above


@pytest.mark.parametrize("num_bins", [10, 20, 100, 1000])
def test_scores_at_any_bin_count_equal_the_sorted_slices(batch, num_bins):
    """``ece`` and ``weighted_ece`` equal the sorted-slice sums bit for bit
    however many bins their items spread over."""
    bins, layout = BinningConfig(num_bins), batch.layout
    pred, conf = _top1(layout)
    acc = (pred == batch.gold_id).astype(np.float64)
    want = reference_finalize(bins, len(batch), conf, np.ones(len(conf)), conf, acc, acc - conf)
    assert_same_bits(ece(batch, bins), want)
    row, col = np.nonzero(layout.active)
    is_gold = (col == layout.gold[row]).astype(np.float64)
    p = layout.prob[layout.active]
    weight = layout.mult[layout.active] * p
    want = reference_finalize(bins, len(batch), p, weight, weight * p, p * is_gold, p * (is_gold - weight))
    assert_same_bits(weighted_ece(batch, bins), want)


@pytest.mark.parametrize("as_records", [False, True], ids=["batch", "records"])
def test_writer_peak_does_not_grow_with_the_log(tmp_path, as_records):
    """A toy log (attention, cum_attention and features on every row) of
    about five blocks, written whole and a quarter of it."""
    task = ToyTaskSpec.two_way_default()
    records = list(emit_log_batch(build_true_model(task), task, 700, seed=3))
    quarter = len(records) // 4
    assert quarter > _ROWS_PER_CHUNK
    path = tmp_path / "log.jsonl"
    peaks = []
    for rows in (records[:quarter], records[: 4 * quarter]):
        source = iter(rows) if as_records else LogBatch.from_records(rows)
        peaks.append(traced_peak(lambda: write_log_file(path, source)))
    with open(path, "rb") as handle:
        block_text = sum(len(next(handle)) for _ in range(_ROWS_PER_CHUNK))
    assert peaks[1] - peaks[0] < block_text, f"peaks {peaks} against a block of {block_text} bytes"


def test_teacher_forcing_stages_no_dense_log():
    """120 sequences (766 rows) at V = 32000 peak at about 17 MB, 10 MB of it
    the emission table that drawing the pairs builds: under a fifth of the
    (N, V) float matrix of the rows, 196 MB. Staging every step in that
    matrix and its (N, V) mask peaked at 226 MB."""
    task = ToyTaskSpec.two_way_default(target_vocab_size=VOCAB, eos_floor=0.02)
    model = build_true_model(task)
    emitted = []
    peak = traced_peak(lambda: emitted.append(emit_log_batch(model, task, 120, seed=4)))
    dense = len(emitted[0]) * VOCAB * 8
    assert peak < dense / 5, f"peaked at {peak / 1e6:.1f} MB against a dense log of {dense / 1e6:.1f} MB"
