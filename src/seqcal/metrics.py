"""Calibration metrics: ECE, weighted ECE, NLL, diagnostic partitions, exports.

Every distribution metric runs on the pooled-tail layout of
``records.pooled_layout``, the rows fit and apply use too: each record's
listed entries, an unlisted EOS and one slot for the unlisted tail, whose
tokens share one probability and therefore one bin. That equals densifying
first at O(N*K) cost. Per-bin sums use ``math.fsum`` over items stably
sorted by bin, so scores are bit-identical under record permutation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MetricError
from .records import BinningConfig, PooledLayout, ReliabilityHistogram, TokenRecord, pooled_layout


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


def _top1_items(layout: PooledLayout, records: Sequence[TokenRecord]) -> list[np.ndarray]:
    """One item per row: its top-1 confidence and whether it is the gold token."""
    pred, conf = _top1(layout)
    gold_id = np.fromiter((r.gold_id for r in records), dtype=np.int64, count=len(records))
    correct = (pred == gold_id).astype(np.float64)
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


def ece(
    records: Iterable[TokenRecord],
    bins: BinningConfig = BinningConfig(),
) -> tuple[float, ReliabilityHistogram]:
    """Top-1 expected calibration error plus its reliability histogram."""
    records = list(records)
    return _finalize(bins, len(records), *_top1_items(pooled_layout(records), records))


def weighted_ece(
    records: Iterable[TokenRecord],
    bins: BinningConfig = BinningConfig(),
) -> tuple[float, ReliabilityHistogram]:
    """Calibration error of the entire distribution: every token's probability
    is binned and contributes p * (correct - p); zero-probability tokens
    contribute nothing."""
    records = list(records)
    return _finalize(bins, len(records), *_weighted_items(pooled_layout(records)))


def nll(records: Iterable[TokenRecord]) -> float:
    """Mean negative log-likelihood of the gold tokens, in nats per token."""
    losses: list[float] = []
    for record in records:
        p = record.gold_prob()
        if p <= 0.0:
            raise MetricError(
                f"gold token {record.gold_id} has zero probability in sequence "
                f"{record.seq_id!r} step {record.t}: NLL is infinite"
            )
        losses.append(-math.log(p))
    if not losses:
        raise MetricError("metric undefined on an empty record stream")
    return math.fsum(losses) / len(losses)


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
    records: Iterable[TokenRecord],
    spec: PartitionSpec,
    bins: BinningConfig = BinningConfig(),
) -> dict[str, GroupMetrics]:
    """Metrics per partition group; empty groups report count 0 with no scores."""
    records = list(records)
    layout = pooled_layout(records)
    if spec.kind == "token_class":
        pred, _ = _top1(layout)
        if spec.token_id is None:
            target, label = layout.ids[np.arange(len(records)), layout.eos], "eos"
        else:
            target, label = spec.token_id, f"token:{spec.token_id}"
        hit = pred == target
        groups = {label: hit, "rest": ~hit}
    elif spec.kind == "entropy_split":
        bare = next((r for r in records if r.features is None), None)
        if bare is not None:
            raise MetricError(
                f"entropy partition needs features; sequence {bare.seq_id!r} step {bare.t} has none"
            )
        entropy = np.fromiter((r.features.entropy for r in records), dtype=np.float64, count=len(records))
        high = entropy >= spec.threshold
        groups = {"high": high, "low": ~high}
    elif spec.kind == "confidence_threshold":
        _, conf = _top1(layout)
        head = conf >= spec.threshold
        groups = {"head": head, "tail": ~head}
    else:
        raise MetricError(f"unknown partition kind {spec.kind!r}")

    top_items = _top1_items(layout, records)
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


def head_tail_curve(
    records: Iterable[TokenRecord],
    thresholds: Sequence[float],
) -> list[dict]:
    """Head/tail mass sums per confidence threshold.

    For each threshold T, sums predicted probability mass and gold-correct
    counts over all (densified) token probabilities below T (tail) and at or
    above T (head). Zero-probability tokens are skipped, matching the
    weighted metric convention.
    """
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise MetricError(f"head/tail threshold must be in (0, 1], got {t}")
    p, mult, is_gold = _slots(pooled_layout(list(records)))
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


def write_report_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_reliability_csv(path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RELIABILITY_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in RELIABILITY_COLUMNS])
