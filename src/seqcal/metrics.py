"""Calibration metrics: ECE, weighted ECE, NLL, diagnostic partitions, exports.

Every metric takes a ``LogBatch`` (or records, which become one) and runs
on its pooled-tail layout ``LogBatch.layout``, built once per batch and
shared with fit and apply: each record's listed entries, an unlisted EOS
and one slot for the unlisted tail, whose tokens share one probability and
therefore one bin. That equals densifying first at O(N*K) cost. Each
bin's sums are ``math.fsum`` over its items, gathered a block of rows at a
time: exact in any order, so scores are bit-identical under record
permutation and at any block size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import MetricError
from .features import ensure_features
from .records import (BinningConfig, PooledLayout, Records, ReliabilityHistogram, TokenRecord, as_batch, blocks,
                      offsets_of, pooled_layout)


def _top1(layout: PooledLayout) -> tuple[np.ndarray, np.ndarray]:
    """Each row's predicted token and its confidence; ties go to the smallest id."""
    columns = layout.prob.T  # the row max, exact, one slot column at a time: no (N, W) temporary
    conf = columns[0].copy()
    for column in columns[1:]:
        np.maximum(conf, column, out=conf)
    pred = np.full(len(conf), np.iinfo(np.int64).max)
    for slot_prob, slot_ids in zip(columns, layout.ids.T):
        np.minimum(pred, slot_ids, out=pred, where=slot_prob == conf)
    return pred, conf


def top1(record: TokenRecord) -> tuple[int, float]:
    """Predicted token and its confidence, identical to argmax over densify()."""
    pred, conf = _top1(pooled_layout([record]))
    return int(pred[0]), float(conf[0])


# A metric's items add (weight, confidence, accuracy, gap) values to the sums of
# the bin their key falls in: four functions of flat indices into the keys, so a
# metric pass holds the keys, their order by bin and one block's items of a bin.
Items = tuple[Callable[[np.ndarray], np.ndarray], ...]


def _unit_items(conf: np.ndarray, acc: np.ndarray) -> Items:
    """Items of weight 1 with the given confidence and accuracy, keyed by ``conf``."""
    return lambda index: np.ones(len(index)), conf.take, acc.take, lambda index: acc.take(index) - conf.take(index)


def _gold_slots(layout: PooledLayout, index: np.ndarray) -> np.ndarray:
    """Whether each slot, by flat index into the layout, holds the gold token."""
    row, col = np.divmod(index, layout.prob.shape[1])
    return col == layout.gold.take(row)


def _weighted_items(layout: PooledLayout) -> Items:
    """Items of the slots, keyed by ``layout.prob``, each contributing
    p * (correct - p) for each of its tokens; only one token of a slot can
    be gold."""
    prob, gold = layout.prob.take, partial(_gold_slots, layout)

    def weight(i):
        return layout.tokens(i) * prob(i)

    return weight, lambda i: weight(i) * prob(i), lambda i: prob(i) * gold(i), lambda i: (gold(i) - weight(i)) * prob(i)


def _finalize(
    bins: BinningConfig, count: int, key: np.ndarray, items: Items, keep: np.ndarray | None = None,
) -> tuple[float, ReliabilityHistogram]:
    """Score and histogram of ``count`` distributions from their items (those
    where ``keep`` holds, if given): the mean over bins of each bin's
    absolute summed gap. A block of rows at a time, the keys are binned and
    their positions sorted by bin; each sum of a bin is one ``math.fsum``
    over its items gathered a block at a time and chained, which rounds
    exactly, so no sum depends on the order of the items or on the blocks."""
    if count == 0:
        raise MetricError("metric undefined on an empty record stream")
    hist = ReliabilityHistogram.empty(bins.num_bins)
    hist.count = float(count)
    sorted_blocks = []  # each block's first key, its keys' positions by bin and where each bin starts among them
    for lo, hi in blocks(len(key)):
        bin_idx = bins.index_array(key[lo:hi]).ravel()
        if keep is not None:
            bin_idx[~keep[lo:hi].ravel()] = bins.num_bins  # in no bin
        order = np.argsort(bin_idx, kind="stable").astype(np.min_scalar_type(len(bin_idx)))  # a radix sort
        sorted_blocks.append((lo * key[0].size, order, offsets_of(np.bincount(bin_idx, minlength=bins.num_bins))))
    sizes = sum(np.diff(starts[: bins.num_bins + 1]) for _, _, starts in sorted_blocks)
    largest = max(len(order) for _, order, _ in sorted_blocks)
    gap_sums = []
    for b in np.flatnonzero(sizes).tolist():
        runs = [(first, order[starts[b] : starts[b + 1]]) for first, order, starts in sorted_blocks]
        # a bin with no more keys than a block is gathered at once, a larger one a block at a time
        pieces = [runs] if sizes[b] <= largest else [[run] for run in runs]

        def gathered(item):
            for piece in pieces:
                yield memoryview(item(np.concatenate([np.add(run, first, dtype=np.intp) for first, run in piece])))

        hist.weight[b], hist.confidence_sum[b], hist.accuracy_sum[b], gap = (
            math.fsum(chain.from_iterable(gathered(item))) for item in items)
        gap_sums.append(gap)
    return math.fsum(abs(g) for g in gap_sums) / count, hist


def ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Top-1 expected calibration error plus its reliability histogram."""
    batch = as_batch(records)
    pred, conf = _top1(batch.layout)
    return _finalize(bins, len(batch), conf, _unit_items(conf, (pred == batch.gold_id).astype(np.float64)))


def weighted_ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Calibration error of the entire distribution: every token's probability
    is binned and contributes p * (correct - p); zero-probability tokens
    contribute nothing."""
    batch = as_batch(records)
    layout = batch.layout
    return _finalize(bins, len(batch), layout.prob, _weighted_items(layout), layout.active)


def nll(records: Records) -> float:
    """Mean negative log-likelihood of the gold tokens, in nats per token,
    under the normalized distributions of the layout."""
    batch = as_batch(records)
    if not len(batch):
        raise MetricError("metric undefined on an empty record stream")
    layout = batch.layout
    p = layout.prob[np.arange(len(batch)), layout.gold]
    zero = p <= 0.0
    if zero.any():
        i = int(np.argmax(zero))
        raise MetricError(f"gold token {batch.gold_id[i]} has zero probability in {batch.where(i)}: NLL is infinite")
    return math.fsum(-np.log(p)) / len(batch)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split records for diagnostic metrics.

    kinds: ``token_class`` (predicted-token split against EOS or a given id),
    ``entropy_split`` (attention entropy above/below a threshold), and
    ``confidence_threshold`` (top-1 confidence above/below a threshold).
    """

    kind: str
    token_id: int | None = None
    threshold: float = 1.0

    @classmethod
    def eos(cls) -> "PartitionSpec":
        return cls(kind="token_class", token_id=None)

    @classmethod
    def token(cls, token_id: int) -> "PartitionSpec":
        if not token_id >= 0:
            raise MetricError(f"token id must be non-negative, got {token_id}")
        return cls(kind="token_class", token_id=token_id)

    @classmethod
    def entropy(cls, threshold: float = 1.0) -> "PartitionSpec":
        if not threshold >= 0:  # NaN fails too
            raise MetricError(f"entropy threshold must be non-negative, got {threshold}")
        return cls(kind="entropy_split", threshold=threshold)

    @classmethod
    def confidence(cls, threshold: float) -> "PartitionSpec":
        if not 0.0 < threshold < 1.0:
            raise MetricError(f"confidence threshold must be in (0, 1), got {threshold}")
        return cls(kind="confidence_threshold", threshold=threshold)


@dataclass
class GroupMetrics:
    ece: float | None
    weighted_ece: float | None
    count: int


def partitioned_metric(
    records: Records,
    spec: PartitionSpec,
    bins: BinningConfig = BinningConfig(),
) -> dict[str, GroupMetrics]:
    """Metrics per partition group; empty groups report count 0 with no scores.
    The entropy split reads the entropy of ``ensure_features``."""
    entropy_split = spec.kind == "entropy_split"
    batch = as_batch(records)
    # derived before the layout, keeping only the entropy column, so that the
    # enriched batch and the layout are never alive at once
    entropy = ensure_features(batch).entropy if entropy_split else None
    layout = batch.layout
    pred, conf = _top1(layout)
    if spec.kind == "token_class":
        if spec.token_id is None:
            target, label = layout.ids[np.arange(len(batch)), layout.eos], "eos"
        else:
            if spec.token_id >= (largest := int(batch.vocab_size.max(initial=0))):
                raise MetricError(f"token id {spec.token_id} is in no row's vocabulary: "
                                  f"the log's largest vocab_size is {largest}")
            target, label = spec.token_id, f"token:{spec.token_id}"
        hit = pred == target
        groups = {label: hit, "rest": ~hit}
    elif entropy_split:
        high = entropy >= spec.threshold
        groups = {"high": high, "low": ~high}
    elif spec.kind == "confidence_threshold":
        head = conf >= spec.threshold
        groups = {"head": head, "tail": ~head}
    else:
        raise MetricError(f"unknown partition kind {spec.kind!r}")

    top = _unit_items(conf, (pred == batch.gold_id).astype(np.float64))
    weighted_items = _weighted_items(layout)
    result: dict[str, GroupMetrics] = {}
    for label, members in groups.items():
        count = int(members.sum())
        if count == 0:
            result[label] = GroupMetrics(ece=None, weighted_ece=None, count=0)
            continue
        plain, _ = _finalize(bins, count, conf, top, members)
        weighted, _ = _finalize(bins, count, layout.prob, weighted_items, layout.active & members[:, None])
        result[label] = GroupMetrics(ece=plain, weighted_ece=weighted, count=count)
    return result


def head_tail_curve(records: Records, thresholds: Sequence[float]) -> list[dict]:
    """Head/tail mass sums per confidence threshold.

    For each threshold T, sums predicted probability mass and gold-correct
    counts over all (densified) token probabilities below T (tail) and at or
    above T (head). Zero-probability tokens are skipped, matching the
    weighted metric convention.
    """
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise MetricError(f"head/tail threshold must be in (0, 1], got {t}")
    layout = as_batch(records).layout
    width, prob = layout.prob.shape[1], layout.prob.reshape(-1)
    mass, gold = _weighted_items(layout)[0], partial(_gold_slots, layout)

    def fsum(value, head: bool, t: float) -> float:
        """``math.fsum`` of ``value`` over the active slots on one side of ``t``, a block at a time."""
        def side(lo, hi):
            p = prob[lo:hi]
            return memoryview(value(lo + np.flatnonzero((p > 0) & ((p < t) != head))))

        return math.fsum(chain.from_iterable(side(lo * width, hi * width) for lo, hi in blocks(len(layout.gold))))

    return [{"threshold": t, "tail_conf_sum": fsum(mass, False, t), "tail_acc_sum": fsum(gold, False, t),
             "head_conf_sum": fsum(mass, True, t), "head_acc_sum": fsum(gold, True, t)} for t in thresholds]


RELIABILITY_COLUMNS = ("bin_lo", "bin_hi", "mass", "avg_confidence", "avg_accuracy")


def export_reliability(hist: ReliabilityHistogram) -> list[dict]:
    """Plot-ready reliability rows, one per bin; empty bins carry null averages."""
    if hist.count <= 0:
        raise MetricError("cannot export an empty histogram")
    bins = BinningConfig(hist.num_bins)
    mass = hist.mass
    rows: list[dict] = []
    for b in range(hist.num_bins):
        lo, hi = bins.edges(b)
        w = hist.weight[b]
        rows.append(
            {
                "bin_lo": lo,
                "bin_hi": hi,
                "mass": float(mass[b]),
                "avg_confidence": float(hist.confidence_sum[b] / w) if w > 0 else None,
                "avg_accuracy": float(hist.accuracy_sum[b] / w) if w > 0 else None,
            }
        )
    return rows


def write_reliability_csv(path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RELIABILITY_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in RELIABILITY_COLUMNS])
