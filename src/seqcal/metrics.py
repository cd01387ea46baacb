"""Calibration metrics: ECE, weighted ECE, NLL, diagnostic partitions, exports.

Every metric takes a ``LogBatch`` (or records, which become one) and runs
on its pooled-tail layout ``LogBatch.layout``, built once per batch and
shared with fit and apply: each record's listed entries, an unlisted EOS
and one slot for the unlisted tail, whose tokens share one probability and
therefore one bin. That equals densifying first at O(N*K) cost. Each
bin's sums are ``math.fsum`` over its items, exact in any order, so scores
are bit-identical under record permutation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import MetricError
from .features import ensure_features
from .records import BinningConfig, PooledLayout, Records, ReliabilityHistogram, TokenRecord, as_batch, pooled_layout


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


# A metric's items each add (weight, confidence, accuracy, gap) values to
# the sums of the bin their key falls in. ``items(mask)`` gives those values
# for the items in ``mask``, one array at a time, so a metric pass holds the
# keys, a narrow bin index and the values of one bin.
Items = Callable[[np.ndarray], Iterator[np.ndarray]]


def _unit_items(conf: np.ndarray, acc: np.ndarray, mask: np.ndarray) -> Iterator[np.ndarray]:
    """Items of weight 1 with the given confidence and accuracy, keyed by ``conf``."""
    yield from (np.ones(np.count_nonzero(mask)), conf[mask], acc[mask], acc[mask] - conf[mask])


def _gold_slots(layout: PooledLayout) -> np.ndarray:
    """Whether each slot of the layout holds the gold token."""
    is_gold = np.zeros(layout.prob.shape, dtype=bool)
    is_gold[np.arange(len(layout.gold)), layout.gold] = True
    return is_gold


def _weighted_items(layout: PooledLayout) -> Items:
    """Items of the slots in a mask, keyed by ``layout.prob``, each
    contributing p * (correct - p) for each of its tokens; only one token of
    a slot can be gold. The gold-slot mask is built once, for every bin."""
    is_gold = _gold_slots(layout)

    def items(mask: np.ndarray) -> Iterator[np.ndarray]:
        p, weight, gold = layout.prob[mask], layout.mult[mask], is_gold[mask]
        weight *= p  # mult * p
        yield weight
        yield weight * p
        yield p * gold
        gap = gold - weight
        gap *= p
        yield gap

    return items


def _fsum(values: np.ndarray) -> float:
    """``math.fsum`` of an array, read through a memoryview: faster than over numpy scalars."""
    return math.fsum(memoryview(values))


def _finalize(
    bins: BinningConfig, count: int, key: np.ndarray, items: Items, keep: np.ndarray | None = None,
) -> tuple[float, ReliabilityHistogram]:
    """Score and histogram of ``count`` distributions from their items (those
    where ``keep`` holds, if given): the mean over bins of each bin's
    absolute summed gap. Each bin is summed on its own by ``math.fsum``,
    which rounds exactly, so no sum depends on the order of the items."""
    if count == 0:
        raise MetricError("metric undefined on an empty record stream")
    hist = ReliabilityHistogram.empty(bins.num_bins)
    hist.count = float(count)
    bin_idx = bins.index_array(key)
    if keep is not None:
        bin_idx[~keep] = bins.num_bins  # in no bin
    ordered = np.sort(bin_idx, axis=None, kind="stable")  # a radix sort; np.unique would import numpy.ma
    present = np.append(ordered[:-1][ordered[1:] != ordered[:-1]], ordered[-1:])
    gap_sums = []
    for b in present[present < bins.num_bins].tolist():
        sums = map(_fsum, items(bin_idx == b))
        hist.weight[b], hist.confidence_sum[b], hist.accuracy_sum[b], gap = sums
        gap_sums.append(gap)
    return math.fsum(abs(g) for g in gap_sums) / count, hist


def ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Top-1 expected calibration error plus its reliability histogram."""
    batch = as_batch(records)
    pred, conf = _top1(batch.layout)
    return _finalize(bins, len(batch), conf, partial(_unit_items, conf, (pred == batch.gold_id).astype(np.float64)))


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

    top = partial(_unit_items, conf, (pred == batch.gold_id).astype(np.float64))
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
    active = layout.active
    p, mult, is_gold = layout.prob[active], layout.mult[active], _gold_slots(layout)[active]
    mass = mult * p
    rows: list[dict] = []
    for t in thresholds:
        tail = p < t
        rows.append(
            {
                "threshold": t,
                "tail_conf_sum": _fsum(mass[tail]),
                "tail_acc_sum": _fsum(is_gold[tail]),
                "head_conf_sum": _fsum(mass[~tail]),
                "head_acc_sum": _fsum(is_gold[~tail]),
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
