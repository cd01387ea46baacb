"""Calibration metrics: ECE, weighted ECE, NLL, diagnostic partitions, exports.

Every metric takes a ``LogBatch`` (or records, which become one) and runs
on its pooled-tail layout ``LogBatch.layout``, built once per batch and
shared with fit and apply: each record's listed entries, an unlisted EOS
and one slot for the unlisted tail, whose tokens share one probability and
therefore one bin. That equals densifying first at O(N*K) cost. Each
metric is a fold (``Calibration``, ``Partition``, ``HeadTail``) of blocks
of rows into exact integer sums per bin (``BinSums``), which is all it
keeps between blocks: ``stats`` folds the blocks it reads from a log, and
the functions below fold their batch through the same code. The sums
round once, as ``math.fsum`` does, so scores are bit-identical under
record permutation and at any block size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MetricError
from .features import FeatureStream
from .records import (BinningConfig, LogBatch, PooledLayout, Records, ReliabilityHistogram, TokenRecord, as_batch,
                      blocks, pooled_layout)

EMPTY = "metric undefined on an empty record stream"
_LOWEST = -1073  # the smallest exponent ``np.frexp`` gives, that of 2**-1074
_STRIDE = 4096  # more than the exponents of finite floats, -1073..1024
_CHUNK_ROWS = 256  # rows whose weighted items (one per active slot) are added to the sums at once
_TOP1_ROWS = 512  # rows whose top-1 items (one per row) are added at once
_PENDING_CELLS = 1024  # cells of one sum that wait before they are folded into Python ints


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


class BinSums:
    """Exact sums of values by bin, added a block of items at a time.

    ``np.frexp`` splits each value into a 53-bit integer mantissa and an
    exponent. The mantissas, split into 27- and 26-bit halves so that int64
    cannot overflow below 2**36 items, are added per (bin, exponent) cell
    that the items hit. Up to ``_PENDING_CELLS`` cells wait as arrays;
    then each distinct cell is folded into one Python int per bin and sum,
    in units of 2**-1126. ``sums`` divides each by 2**1126, which rounds
    correctly, as ``math.fsum`` of the bin's values does.
    """

    def __init__(self, bins: int, values: int = 4) -> None:
        self.totals = [[0] * bins for _ in range(values)]
        self.pending: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(values)]  # (cells, high, low)

    def add(self, bin_idx: np.ndarray, values: Iterable[np.ndarray]) -> None:
        """Add each array of ``values``, one per sum, to the bins of ``bin_idx``."""
        base = np.multiply(bin_idx, _STRIDE, dtype=np.int64)
        base -= _LOWEST
        for pending, value in zip(self.pending, values):
            mantissa, exponent = np.frexp(value)
            mantissa *= 2.0**53
            mantissa = mantissa.astype(np.int64)  # exact
            high = mantissa >> 26
            mantissa &= 2**26 - 1
            pending.append(_cell_sums(base + exponent, high, mantissa))
        if sum(len(cells) for cells, _, _ in self.pending[0]) > _PENDING_CELLS:
            self._fold()

    def _fold(self) -> None:
        for total, pending in zip(self.totals, self.pending):
            if pending:
                for cell, high, low in zip(*(a.tolist() for a in _cell_sums(*map(np.concatenate, zip(*pending))))):
                    b, shift = divmod(cell, _STRIDE)
                    total[b] += ((high << 26) + low) << shift
            pending.clear()

    def sums(self) -> list[list[float]]:
        self._fold()
        return [[t / 2**1126 for t in total] for total in self.totals]


def _cell_sums(key: np.ndarray, *parts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct values of ``key`` in order, and each part summed over the items of each."""
    order = np.argsort(key)
    key = key.take(order)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return key.take(starts), *(np.add.reduceat(part.take(order), starts) for part in parts)


def _score(bins: BinningConfig, count: int, sums: list[list[float]]) -> tuple[float, ReliabilityHistogram]:
    """Score and histogram of ``count`` distributions from their per-bin
    (weight, confidence, accuracy, gap) sums: the mean over bins of each
    bin's absolute summed gap."""
    if count == 0:
        raise MetricError(EMPTY)
    weight, confidence, accuracy, gap = map(np.array, sums)
    return math.fsum(abs(gap)) / count, ReliabilityHistogram(bins.num_bins, weight, confidence, accuracy, float(count))


def _finalize(bins: BinningConfig, count: int, key: np.ndarray, values: Iterable[np.ndarray]):
    """Score and histogram of ``count`` distributions from their items, each
    binned by its ``key`` and adding (weight, confidence, accuracy, gap)."""
    sums = BinSums(bins.num_bins)
    sums.add(bins.index_array(key), values)
    return _score(bins, count, sums.sums())


def _gold_slots(layout: PooledLayout, index: np.ndarray) -> np.ndarray:
    """Whether each slot, by flat index into the layout, holds the gold token."""
    row, col = np.divmod(index, layout.prob.shape[1])
    return col == layout.gold.take(row)


def _top1_items(layout: PooledLayout, gold_id: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's item, keyed by its confidence, of weight 1 and accuracy 1
    where its prediction is gold: (row, key, values)."""
    pred, conf = _top1(layout)
    acc = (pred == gold_id).astype(np.float64)

    def values():  # made as they are added, so that they are not all alive at once
        yield np.ones(len(conf))
        yield conf
        yield acc
        yield acc - conf
    return slice(None), conf, values()


def _slot_items(layout: PooledLayout, gold_id: np.ndarray) -> tuple[np.ndarray, ...]:
    """The items of the active slots, keyed by ``layout.prob``, each
    contributing p * (correct - p) for each of its tokens; only one token
    of a slot can be gold: (row, key, values)."""
    index = np.flatnonzero(layout.prob)
    prob, gold = layout.prob.ravel().take(index), _gold_slots(layout, index)
    weight = layout.tokens(index) * prob
    return index // layout.prob.shape[1], prob, (weight, weight * prob, prob * gold, (gold - weight) * prob)


class Calibration:
    """Top-1 calibration error, or (``weighted``) that of the entire
    distribution, of rows in ``groups``, folded a block at a time: each
    group's count of rows and per-bin sums of its items."""

    def __init__(self, bins: BinningConfig, weighted: bool = False, groups: int = 1) -> None:
        self.bins, self.items = bins, _slot_items if weighted else _top1_items
        self.chunk = _CHUNK_ROWS if weighted else _TOP1_ROWS
        self.counts, self.sums = np.zeros(groups, dtype=np.int64), BinSums(groups * bins.num_bins)

    def add(self, batch: LogBatch, group: np.ndarray | None = None) -> None:
        """Fold the rows of ``batch``, each in its ``group`` (0 if None)."""
        self.counts += len(batch) if group is None else np.bincount(group, minlength=len(self.counts))
        for lo in range(0, len(batch), self.chunk):
            rows = batch.layout.rows(lo, lo + self.chunk)
            row, key, values = self.items(rows, batch.gold_id[lo : lo + self.chunk])
            offset = 0 if group is None else group[lo : lo + self.chunk][row] * self.bins.num_bins
            self.sums.add(offset + self.bins.index_array(key), values)

    def result(self, group: int = 0) -> tuple[float, ReliabilityHistogram]:
        bins = slice(group * self.bins.num_bins, (group + 1) * self.bins.num_bins)
        return _score(self.bins, int(self.counts[group]), [sums[bins] for sums in self.sums.sums()])


def _fold(fold, records: Records):
    """``fold`` with a whole batch added."""
    fold.add(as_batch(records))
    return fold


def ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Top-1 expected calibration error plus its reliability histogram."""
    return _fold(Calibration(bins), records).result()


def weighted_ece(records: Records, bins: BinningConfig = BinningConfig()) -> tuple[float, ReliabilityHistogram]:
    """Calibration error of the entire distribution: every token's probability
    is binned and contributes p * (correct - p); zero-probability tokens
    contribute nothing."""
    return _fold(Calibration(bins, weighted=True), records).result()


def nll(records: Records) -> float:
    """Mean negative log-likelihood of the gold tokens, in nats per token,
    under the normalized distributions of the layout."""
    batch = as_batch(records)
    if not len(batch):
        raise MetricError(EMPTY)
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
        if threshold == math.inf:
            raise MetricError("entropy threshold must be finite, got inf: no entropy reaches it")
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


class Partition:
    """``partitioned_metric`` folded a block of whole sequences at a time;
    the entropy split derives each block's entropy (``features.FeatureStream``)."""

    def __init__(self, spec: PartitionSpec, bins: BinningConfig) -> None:
        labels = {"entropy_split": ("high", "low"), "confidence_threshold": ("head", "tail"),
                  "token_class": ("eos" if spec.token_id is None else f"token:{spec.token_id}", "rest")}
        if spec.kind not in labels:
            raise MetricError(f"unknown partition kind {spec.kind!r}")
        self.spec, self.labels, self.largest_vocab = spec, labels[spec.kind], 0
        self.features = FeatureStream() if spec.kind == "entropy_split" else None
        self.plain, self.weighted = Calibration(bins, groups=2), Calibration(bins, weighted=True, groups=2)

    def add(self, batch: LogBatch) -> None:
        spec = self.spec
        self.largest_vocab = max(self.largest_vocab, int(batch.vocab_size.max(initial=0)))
        if self.features is not None:  # derived before the layout, so that the two are never alive at once
            entropy = self.features.entropy(batch)
            if entropy is None:  # its error is raised at the end
                return
            first = entropy >= spec.threshold
        elif spec.kind == "confidence_threshold":
            first = _top1(batch.layout)[1] >= spec.threshold
        else:
            layout = batch.layout
            target = layout.ids[np.arange(len(batch)), layout.eos] if spec.token_id is None else spec.token_id
            first = _top1(layout)[0] == target
        for fold in (self.plain, self.weighted):
            fold.add(batch, (~first).astype(np.int64))

    def result(self) -> dict[str, GroupMetrics]:
        if self.features is not None:
            self.features.check()
        if not self.plain.counts.any():
            raise MetricError(EMPTY)
        if self.spec.token_id is not None and self.spec.token_id >= self.largest_vocab:
            raise MetricError(f"token id {self.spec.token_id} is in no row's vocabulary: "
                              f"the log's largest vocab_size is {self.largest_vocab}")
        return {label: GroupMetrics(
            ece=self.plain.result(g)[0] if count else None,
            weighted_ece=self.weighted.result(g)[0] if count else None,
            count=count,
        ) for g, (label, count) in enumerate(zip(self.labels, self.plain.counts.tolist()))}


def partitioned_metric(
    records: Records,
    spec: PartitionSpec,
    bins: BinningConfig = BinningConfig(),
) -> dict[str, GroupMetrics]:
    """Metrics per partition group; empty groups report count 0 with no scores.
    The entropy split reads the entropy of ``ensure_features``, derived a
    block of whole sequences at a time."""
    batch, partition = as_batch(records), Partition(spec, bins)
    for lo, hi in blocks(len(batch), batch.seq_starts):
        partition.add(batch.block(lo, hi))
    return partition.result()


class HeadTail:
    """``head_tail_curve`` folded a block at a time: per threshold and side,
    the exact sums of the mass and of the gold flags of the active slots."""

    def __init__(self, thresholds: Sequence[float]) -> None:
        for t in thresholds:
            if not 0.0 < t <= 1.0:
                raise MetricError(f"head/tail threshold must be in (0, 1], got {t}")
        self.thresholds, self.count = list(thresholds), 0
        self.sums = BinSums(2 * len(self.thresholds), 2)  # per threshold: tail, head

    def add(self, batch: LogBatch) -> None:
        self.count += len(batch)
        for lo in range(0, len(batch), _CHUNK_ROWS):
            rows = batch.layout.rows(lo, lo + _CHUNK_ROWS)
            index = np.flatnonzero(rows.prob)
            prob = rows.prob.ravel().take(index)
            values = (rows.tokens(index) * prob, _gold_slots(rows, index).astype(np.float64))
            for k, t in enumerate(self.thresholds):
                self.sums.add(2 * k + (prob >= t), values)

    def result(self) -> list[dict]:
        if not self.count:
            raise MetricError(EMPTY)
        mass, gold = self.sums.sums()
        return [{"threshold": t, "tail_conf_sum": mass[2 * k], "tail_acc_sum": gold[2 * k],
                 "head_conf_sum": mass[2 * k + 1], "head_acc_sum": gold[2 * k + 1]}
                for k, t in enumerate(self.thresholds)]


def head_tail_curve(records: Records, thresholds: Sequence[float]) -> list[dict]:
    """Head/tail mass sums per confidence threshold.

    For each threshold T, sums predicted probability mass and gold-correct
    counts over all (densified) token probabilities below T (tail) and at or
    above T (head). Zero-probability tokens are skipped, matching the
    weighted metric convention.
    """
    return _fold(HeadTail(thresholds), records).result()


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
