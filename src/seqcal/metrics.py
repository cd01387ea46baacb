"""Calibration metrics: ECE, weighted ECE, NLL, diagnostic partitions, exports.

Every metric takes a ``LogBatch`` (or records, which become one) and runs
on its pooled-tail layout ``LogBatch.layout``, built once per batch and
shared with fit and apply: each record's listed entries, an unlisted EOS
and one slot for the unlisted tail, whose tokens share one probability and
therefore one bin. That equals densifying first at O(N*K) cost. Per-bin
sums use ``math.fsum`` over items stably sorted by bin, so scores are
bit-identical under record permutation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MetricError
from .features import ensure_features
from .records import BinningConfig, LogBatch, PooledLayout, ReliabilityHistogram, TokenRecord, as_batch, pooled_layout

Records = LogBatch | Iterable[TokenRecord]


def _top1(layout: PooledLayout) -> tuple[np.ndarray, np.ndarray]:
    """Each row's predicted token and its confidence; ties go to the smallest id."""
    conf = layout.prob.max(axis=1)
    pred = np.where(layout.prob == conf[:, None], layout.ids, np.iinfo(np.int64).max).min(axis=1)
    return pred, conf


def top1(record: TokenRecord) -> tuple[int, float]:
    """Predicted token and its confidence, identical to argmax over densify()."""
    pred, conf = _top1(pooled_layout([record]))
    return int(pred[0]), float(conf[0])


# A metric's items are parallel arrays (bin key, weight, confidence, accuracy,
# gap): the value that picks an item's bin and its contributions to the
# bin's sums.


def _top1_items(batch: LogBatch) -> list[np.ndarray]:
    """One item per row: its top-1 confidence and whether it is the gold token."""
    pred, conf = _top1(batch.layout)
    correct = (pred == batch.gold_id).astype(np.float64)
    return [conf, np.ones(len(conf)), conf, correct, correct - conf]


def _slots(layout: PooledLayout, members: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per-token probability, token count and gold indicator of every active
    slot, of the ``members`` rows only if given; zero-probability tokens
    contribute nothing."""
    active = layout.active if members is None else layout.active & members[:, None]
    row, col = np.nonzero(active)
    is_gold = (col == layout.gold[row]).astype(np.float64)
    return layout.prob[active], layout.mult[active], is_gold


def _weighted_items(layout: PooledLayout, members: np.ndarray | None = None) -> list[np.ndarray]:
    """One item per active slot, contributing p * (correct - p) for each of
    its tokens; only one token of a slot can be gold."""
    p, mult, is_gold = _slots(layout, members)
    weight = mult * p
    return [p, weight, weight * p, p * is_gold, p * (is_gold - weight)]


def _finalize(
    bins: BinningConfig,
    count: int,
    key: np.ndarray,
    weight: np.ndarray,
    conf: np.ndarray,
    acc: np.ndarray,
    gap: np.ndarray,
) -> tuple[float, ReliabilityHistogram]:
    """Score and histogram of ``count`` distributions from their items:
    the mean over bins of each bin's absolute summed gap."""
    if count == 0:
        raise MetricError("metric undefined on an empty record stream")
    hist = ReliabilityHistogram.empty(bins.num_bins)
    hist.count = float(count)
    bin_idx = bins.index_array(key)
    order = np.argsort(bin_idx, kind="stable")
    present, starts = np.unique(bin_idx[order], return_index=True)
    spans = list(zip(starts, np.append(starts[1:], len(order))))
    sums = []
    for values in (gap, weight, conf, acc):  # one sorted copy alive at a time
        ordered = np.asarray(values)[order]
        sums.append([math.fsum(ordered[lo:hi]) for lo, hi in spans])
    gap_sums, hist.weight[present], hist.confidence_sum[present], hist.accuracy_sum[present] = sums
    return math.fsum(abs(g) for g in gap_sums) / count, hist


def ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Top-1 expected calibration error plus its reliability histogram."""
    batch = as_batch(records, vectors=False)
    return _finalize(bins, len(batch), *_top1_items(batch))


def weighted_ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Calibration error of the entire distribution: every token's probability
    is binned and contributes p * (correct - p); zero-probability tokens
    contribute nothing."""
    batch = as_batch(records, vectors=False)
    return _finalize(bins, len(batch), *_weighted_items(batch.layout))


def nll(records: Records) -> float:
    """Mean negative log-likelihood of the gold tokens, in nats per token,
    under the normalized distributions of the layout."""
    batch = as_batch(records, vectors=False)
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
        return cls(kind="token_class", token_id=token_id)

    @classmethod
    def entropy(cls, threshold: float = 1.0) -> "PartitionSpec":
        if threshold < 0:
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
    batch = as_batch(records, vectors=entropy_split)
    # derived before the layout, keeping only the entropy column, so that the
    # enriched batch and the layout are never alive at once
    entropy = ensure_features(batch).entropy if entropy_split else None
    layout = batch.layout
    if spec.kind == "token_class":
        pred, _ = _top1(layout)
        if spec.token_id is None:
            target, label = layout.ids[np.arange(len(batch)), layout.eos], "eos"
        else:
            target, label = spec.token_id, f"token:{spec.token_id}"
        hit = pred == target
        groups = {label: hit, "rest": ~hit}
    elif entropy_split:
        high = entropy >= spec.threshold
        groups = {"high": high, "low": ~high}
    elif spec.kind == "confidence_threshold":
        _, conf = _top1(layout)
        head = conf >= spec.threshold
        groups = {"head": head, "tail": ~head}
    else:
        raise MetricError(f"unknown partition kind {spec.kind!r}")

    top_items = _top1_items(batch)
    result: dict[str, GroupMetrics] = {}
    for label, members in groups.items():
        count = int(members.sum())
        if count == 0:
            result[label] = GroupMetrics(ece=None, weighted_ece=None, count=0)
            continue
        plain, _ = _finalize(bins, count, *(a[members] for a in top_items))
        weighted, _ = _finalize(bins, count, *_weighted_items(layout, members))
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
    p, mult, is_gold = _slots(as_batch(records, vectors=False).layout)
    mass = mult * p
    rows: list[dict] = []
    for t in thresholds:
        tail = p < t
        rows.append(
            {
                "threshold": t,
                "tail_conf_sum": math.fsum(mass[tail]),
                "tail_acc_sum": math.fsum(is_gold[tail]),
                "head_conf_sum": math.fsum(mass[~tail]),
                "head_acc_sum": math.fsum(is_gold[~tail]),
            }
        )
    return rows


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
