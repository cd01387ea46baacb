"""Calibration features derived from attention: entropy and input coverage.

``enrich_batch`` derives both for a whole ``LogBatch`` in one columnar
pass; ``attention_entropy`` and ``coverage`` are the one-step forms a
decoder calls. Both give the same values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import FeatureError
from .records import PROB_ATOL, LogBatch, SequenceRecord, first_failed, offsets_of, rows_with, spans


@dataclass(frozen=True)
class FeatureConfig:
    """Coverage counts source positions whose cumulative attention exceeds
    ``coverage_threshold``; entropy is always in nats."""

    coverage_threshold: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage_threshold < 1.0:
            raise FeatureError(f"coverage threshold must be in (0, 1), got {self.coverage_threshold}")


def attention_entropy(alpha: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy (nats) of an attention distribution, with 0*ln 0 := 0."""
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.size == 0:
        raise FeatureError("attention vector is empty")
    if (arr < 0).any():
        raise FeatureError("attention weights must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise FeatureError(f"attention sums to {total:.8f}, expected 1")
    positive = arr[arr > 0]
    return max(0.0, -float((positive * np.log(positive)).sum()))


def coverage(cum_attention: Sequence[float] | np.ndarray, delta: float) -> float:
    """Fraction of source positions with cumulative attention strictly above delta."""
    arr = np.asarray(cum_attention, dtype=np.float64)
    if arr.size == 0:
        raise FeatureError("cumulative attention vector is empty")
    if (arr < 0).any():
        raise FeatureError("cumulative attention weights must be non-negative")
    return float(np.count_nonzero(arr > delta)) / arr.size


def _row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR row's ``np.sum``, bit for bit: the rows of one length are
    summed together as the rows of a 2-D array, which numpy reduces row by
    row with the same pairwise summation."""
    lengths = np.diff(offsets)
    sums = np.zeros(len(lengths))
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if len(group) and lengths[group[0]]:
            sums[group] = values[offsets[group, None] + np.arange(lengths[group[0]])].sum(axis=1)
    return sums


def _attention_features(alpha, alpha_offsets, cum, cum_offsets, delta: float):
    """Per CSR row: the entropy of ``alpha`` as ``attention_entropy`` takes
    it, the coverage of ``cum`` as ``coverage`` takes it, and the checks the
    two make, as (failed rows, message) pairs in their order."""
    n = len(alpha_offsets) - 1
    total = _row_sums(alpha, alpha_offsets)
    positive = alpha > 0
    x = alpha[positive]
    entropy = -_row_sums(x * np.log(x), np.concatenate(([0], np.cumsum(positive)))[alpha_offsets])
    entropy[entropy <= 0.0] = 0.0  # max(0, -sum), which also turns -0.0 into 0.0
    cum_len = np.diff(cum_offsets)
    above = np.bincount(np.repeat(np.arange(n), cum_len)[cum > delta], minlength=n)
    cov = np.divide(above, cum_len, out=np.zeros(n), where=cum_len > 0)
    attention_checks = [
        (np.diff(alpha_offsets) == 0, "attention vector is empty"),
        (rows_with(alpha < 0, alpha_offsets), "attention weights must be non-negative"),
        (np.abs(total - 1.0) > PROB_ATOL, lambda i: f"attention sums to {total[i]:.8f}, expected 1"),
    ]
    coverage_checks = [
        (cum_len == 0, "cumulative attention vector is empty"),
        (rows_with(cum < 0, cum_offsets), "cumulative attention weights must be non-negative"),
    ]
    return entropy, cov, attention_checks, coverage_checks


def _raise_first(batch: LogBatch, problems) -> None:
    """Raise FeatureError for the first row failing any of ``problems``,
    (failed rows, message) pairs, with its first failing message."""
    first = first_failed([failed for failed, _ in problems])
    bad = first < len(problems)
    if bad.any():
        row = int(np.argmax(bad))
        message = problems[first[row]][1]
        raise FeatureError(f"{batch.where(row)}: {message(row) if callable(message) else message}")


def step_features(batch: LogBatch, rows: np.ndarray, cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stored (entropy, coverage), except on ``rows``, which get
    the entropy of their attention and the coverage of their stored
    cumulative attention, step by step. Every one of ``rows`` must carry both."""
    entropy, cov, attention_checks, coverage_checks = _attention_features(
        batch.attention, batch.att_offsets, batch.cum_attention, batch.cum_offsets, cfg.coverage_threshold,
    )
    _raise_first(batch, [(rows & failed, message) for failed, message in attention_checks + coverage_checks])
    return np.where(rows, entropy, batch.entropy), np.where(rows, cov, batch.coverage)


def enrich_batch(batch: LogBatch, cfg: FeatureConfig = FeatureConfig()) -> LogBatch:
    """Fill (entropy, coverage) on every row of a batch in one columnar pass.

    A step's cumulative attention is its stored ``cum_attention``, or else
    the running sum of its sequence's attention up to and including it. A
    step with only ``cum_attention`` gets its attention by differencing
    against the previous step's cumulative attention (zeros at the start
    of a sequence, or when the previous step's is unknown). Stored
    features pass through; a step without them gets both from its
    attention, and a step without ``cum_attention`` gets the running sum
    filled in. A step that carries only features leaves its attention
    unknown, so the running sum is unknown until a step stores
    ``cum_attention`` again; a step in between that needs the sum raises
    FeatureError. Every check raises FeatureError naming the sequence and
    step of the first bad row. Idempotent.

    The pass steps through the sequences in lockstep, one step position at
    a time, so it makes O(longest sequence) numpy calls; the running sums
    add the same floats in the same order as a per-step loop.
    """
    n = len(batch)
    has_att, has_cum, has_feat = batch.has_attention, batch.has_cum, batch.has_features
    att_len, cum_len = np.diff(batch.att_offsets), np.diff(batch.cum_offsets)
    has_vec = has_att | has_cum
    length = np.where(has_att, att_len, cum_len)
    bad_len = has_att & has_cum & (att_len != cum_len)
    # every row's vectors in one layout: attention, stored, running and current cumulative
    off = offsets_of(length)
    alpha, stored, running, cum = (np.zeros(off[-1]) for _ in range(4))
    alpha[spans(off[:-1][has_att], att_len[has_att])] = batch.attention
    fits = has_cum & ~bad_len
    stored[spans(off[:-1][fits], cum_len[fits])] = batch.cum_attention[
        spans(batch.cum_offsets[:-1][fits], cum_len[fits])
    ]

    def span(rows):
        return spans(off[rows], length[rows])

    starts, seq_len = batch.seq_starts[:-1], np.diff(batch.seq_starts)
    by_length = np.argsort(-seq_len, kind="stable")
    # sequences still running at each step position: a prefix of by_length
    live_counts = np.searchsorted(-seq_len[by_length], -np.arange(int(seq_len.max(initial=0))), side="left")
    prev = np.full(len(starts), -1)  # the row holding the previous step's cumulative attention
    run = np.full(len(starts), -1)   # the row holding the running sum
    gap = np.zeros(len(starts), dtype=bool)  # running sum unknown since a features-only step
    known = np.zeros(n, dtype=bool)  # the row's cumulative attention is known
    decreased = np.zeros(n, dtype=bool)
    unknown = np.zeros(n, dtype=bool)
    for k, live_count in enumerate(live_counts):
        live = by_length[:live_count]
        rows = starts[live] + k
        a, c, g, p, r = has_att[rows], has_cum[rows], gap[live], prev[live], run[live]
        # attention of a step with only cum_attention, by differencing
        derive = ~a & c & ~bad_len[rows]
        based = derive & (p >= 0)
        based &= ~(mismatch := based & (length[p] != length[rows]))
        bad_len[rows[mismatch]] = True
        derive &= ~mismatch
        if derive.any():
            dst = span(rows[derive])
            base = np.zeros(len(dst))
            base[np.repeat(based[derive], length[rows[derive]])] = cum[span(p[based])]
            diff = stored[dst] - base
            decreased[rows[derive]] = rows_with(diff < -PROB_ATOL, offsets_of(length[rows[derive]]))
            alpha[dst] = np.maximum(diff, 0.0)
        # the running sum
        vec = has_vec[rows] & ~bad_len[rows]
        cont = vec & ~g & (r >= 0)
        cont &= ~(mismatch := cont & (length[r] != length[rows]))
        bad_len[rows[mismatch]] = True
        vec &= ~mismatch
        fresh, restore, lost = vec & ~g & (r < 0), vec & g & c, vec & g & ~c
        if cont.any():
            dst = span(rows[cont])
            running[dst] = running[span(r[cont])] + alpha[dst]
        running[span(rows[fresh])] = alpha[span(rows[fresh])]
        running[span(rows[restore])] = stored[span(rows[restore])]
        # the current cumulative attention: the stored one, else the running sum when known
        summed = (cont | fresh) & ~c
        cum[span(rows[vec & c])] = stored[span(rows[vec & c])]
        cum[span(rows[summed])] = running[span(rows[summed])]
        known[rows] = (vec & c) | summed
        unknown[rows[lost & ~has_feat[rows]]] = True
        run[live] = np.where(cont | fresh | restore, rows, -1)
        prev[live] = np.where(known[rows], rows, -1)
        gap[live] = ~vec | (g & ~c)

    entropy, cov, attention_checks, coverage_checks = _attention_features(
        alpha, off, cum, off, cfg.coverage_threshold,
    )
    _raise_first(batch, [
        (~has_vec & ~has_feat, "no attention, cumulative attention, or features"),
        (bad_len, "attention vectors differ in length"),
        (decreased, "cumulative attention decreased"),
        *((has_vec & failed, message) for failed, message in attention_checks),
        (unknown, "cumulative attention unknown after a step that carries only features; "
                  "store cum_attention or features on this step"),
        *((known & failed, message) for failed, message in coverage_checks),
    ])
    filled = has_cum | (has_vec & known)
    return replace(
        batch,
        has_cum=filled,
        cum_offsets=offsets_of(np.where(filled, length, 0)),
        cum_attention=cum[spans(off[:-1][filled], length[filled])],
        has_features=np.ones(n, dtype=bool),
        entropy=np.where(has_feat, batch.entropy, entropy),
        coverage=np.where(has_feat, batch.coverage, cov),
    )


def enrich(seq: SequenceRecord, cfg: FeatureConfig = FeatureConfig()) -> SequenceRecord:
    """Fill (entropy, coverage) on every step of a sequence: ``enrich_batch``
    on a batch of its steps."""
    batch = replace(LogBatch.from_records(seq.steps), seq_ids=[seq.seq_id], seq_starts=np.array([0, len(seq.steps)]))
    return replace(seq, steps=tuple(enrich_batch(batch, cfg)))


def enrich_all(sequences, cfg: FeatureConfig = FeatureConfig()) -> list[SequenceRecord]:
    return [enrich(seq, cfg) for seq in sequences]


def attention_profile(alpha_peakedness: float, aligned: int, k: int) -> np.ndarray:
    """Interpolate between one-hot alignment (0) and uniform attention (1)."""
    if not 0.0 <= alpha_peakedness <= 1.0:
        raise FeatureError(f"interpolation weight must be in [0, 1], got {alpha_peakedness}")
    # (1 - a) * one_hot + a * uniform, with the same roundings
    profile = np.full(k, alpha_peakedness * (1.0 / k))
    profile[aligned] += 1.0 - alpha_peakedness
    return profile

