"""Calibration features derived from attention: entropy and input coverage.

``enrich_batch`` derives both for a whole ``LogBatch`` in one columnar
pass; ``attention_entropy`` and ``coverage`` are the one-step forms a
decoder calls (``coverage`` also takes a batch of rows). Both give the
same values bit for bit. Entropy is in nats; coverage counts the source
positions whose cumulative attention exceeds ``COVERAGE_THRESHOLD``, the
one threshold that logs, fits, ``apply`` and decoders share. An attention
vector sums to 1 by its ``np.sum``, as the log reader sums it
(``records.row_sums``). ``ensure_features`` is the one rule for rows
without stored features, which fits, apply, the entropy partition and the
CLI share.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import FeatureError
from .records import (PROB_ATOL, LogBatch, SequenceRecord, first_failed, offsets_of, row_sums, rows_with, spans,
                      sums_to_one)


COVERAGE_THRESHOLD = 0.35


def attention_entropy(alpha: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Shannon entropy (nats) of an attention distribution, with 0*ln 0 := 0:
    a float for one vector, one per row of a 2-D array."""
    arr = np.asarray(alpha, dtype=np.float64, order="C")
    if arr.shape[-1] == 0:
        raise FeatureError("attention vector is empty")
    if not arr.min() >= 0:  # NaN fails too
        raise FeatureError("attention weights must be non-negative")
    total = arr.sum(axis=-1)  # a row's sum as ``row_sums`` takes it
    ok = sums_to_one(total)
    if not (ok if arr.ndim == 1 else ok.all()):  # a np.bool_'s .all() would cost a reduction
        raise FeatureError(f"attention sums to {np.ravel(total)[np.argmin(ok)]:.8f}, expected 1")
    positive = arr > 0
    x = arr[positive]
    x *= np.log(x)
    if arr.ndim == 1:
        return max(0.0, -float(x.sum()))
    entropy = -row_sums(x, offsets_of(positive.sum(axis=1)))
    entropy[entropy <= 0.0] = 0.0  # max(0, -sum), which also turns -0.0 into 0.0
    return entropy


def coverage(cum_attention: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Fraction of source positions with cumulative attention strictly above
    ``COVERAGE_THRESHOLD``: a float for one vector, one per row of a 2-D array."""
    arr = np.asarray(cum_attention, dtype=np.float64)
    if arr.shape[-1] == 0:
        raise FeatureError("cumulative attention vector is empty")
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < np.inf):  # NaN fails the first
        problem = "non-negative" if not (arr >= 0).all() else "finite"
        raise FeatureError(f"cumulative attention weights must be {problem}")
    if arr.ndim == 1:
        return float(np.count_nonzero(arr > COVERAGE_THRESHOLD)) / arr.size
    return (arr > COVERAGE_THRESHOLD).sum(axis=-1) / arr.shape[-1]


def masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row's ``np.sum`` of its entries where ``mask`` holds, bit for
    bit, shaped to broadcast against ``values``: a 1-D ``values`` is one
    row."""
    if values.ndim == 1 or len(values) == 1:
        return values[mask].sum(keepdims=True)
    return row_sums(values[mask], offsets_of(mask.sum(axis=1)))[:, None]


def _raise_first(batch: LogBatch, problems) -> None:
    """Raise FeatureError for the first row failing any of ``problems``,
    (failed rows, message) pairs, with its first failing message."""
    first = first_failed([failed for failed, _ in problems])
    bad = first < len(problems)
    if bad.any():
        row = int(np.argmax(bad))
        message = problems[first[row]][1]
        raise FeatureError(f"{batch.where(row)}: {message(row) if callable(message) else message}")


def enrich_batch(batch: LogBatch) -> LogBatch:
    """Fill (entropy, coverage) on every row of a batch in one columnar pass.

    A step's cumulative attention is its stored ``cum_attention``, or else
    the running sum of its sequence's attention up to and including it. A
    step with only ``cum_attention`` gets its attention by differencing
    against the previous step's cumulative attention (zeros at the start
    of a sequence). Stored features pass through; a step without them gets
    both from its attention, and a step without ``cum_attention`` gets the
    running sum filled in. A step that carries only features leaves its
    attention unknown, so the running sum is unknown until a step stores
    ``cum_attention`` again, and so is the attention of a step in between
    that stores only ``cum_attention``; such a step without features
    raises FeatureError. Every check raises FeatureError naming the
    sequence and step of the first bad row. Idempotent.

    Every row of a sequence is as wide as the sequence's first vector, and
    the sequence's rows lie back to back, so a step's predecessor sits one
    width earlier. NaN marks an unknown vector. One loop over step
    positions carries only the cumulative vectors; it adds the same floats
    in the same order as a per-step loop.
    """
    n = len(batch)
    has_att, has_cum, has_feat = batch.has_attention, batch.has_cum, batch.has_features
    att_len, cum_len = np.diff(batch.att_offsets), np.diff(batch.cum_offsets)
    has_vec = has_att | has_cum
    length = np.where(has_att, att_len, cum_len)
    starts, vec_rows = batch.seq_starts, np.flatnonzero(has_vec)
    # each sequence's first row with a vector, when it is below the sequence's end
    first = np.append(vec_rows, n)[np.searchsorted(vec_rows, starts[:-1])]
    seq_width = np.where(first < starts[1:], np.append(length, 0)[first], 0)
    width = seq_width[batch.seq_index]
    bad_len = (has_att & (att_len != width)) | (has_cum & (cum_len != width))
    off = offsets_of(width)
    alpha, cum = np.full(off[-1], np.nan), np.full(off[-1], np.nan)
    for out, values, offsets, has in (
        (alpha, batch.attention, batch.att_offsets, has_att), (cum, batch.cum_attention, batch.cum_offsets, has_cum),
    ):
        fits = has & ~bad_len
        if (has & bad_len).any():  # a vector of the wrong width stays unknown; its row fails
            values = values[np.repeat(fits, np.diff(offsets))]
        out[np.repeat(fits, width)] = values

    # the sequences by length, longest first: those still running at a step are a prefix
    seq_len = np.diff(starts)
    order = np.argsort(-seq_len, kind="stable")
    w = seq_width[order]
    at_first = spans(off[starts[:-1][order]], w)
    back = np.repeat(w, w)
    live = offsets_of(w)[np.searchsorted(-seq_len[order], -np.arange(seq_len.max(initial=0)), side="left")]
    decreased = np.zeros(n, dtype=bool)
    for k, m in enumerate(live.tolist()):
        at = at_first[:m] + k * back[:m]
        a, c = alpha[at], cum[at]
        derive = np.isnan(a)
        if derive.any():  # a step with only cum_attention: difference against the previous step's
            diff = c[derive] - (cum[at[derive] - back[:m][derive]] if k else 0.0)
            decreased[np.searchsorted(off, at[derive][diff < -PROB_ATOL], "right") - 1] = True
            a[derive] = alpha[at[derive]] = np.maximum(diff, 0.0)
        running = a if k == 0 else running[:m] + a
        restart = np.isnan(running)  # a stored cum_attention restarts an unknown running sum
        running[restart] = c[restart]
        cum[at] = np.where(np.isnan(c), running, c)

    def known(values):
        """Rows whose vector in ``values`` is known: an unknown one is NaN throughout."""
        out = np.ones(n, dtype=bool)
        out[width > 0] = ~np.isnan(values[off[:-1][width > 0]])
        return out

    known_att, known_cum = has_vec & known(alpha), has_vec & known(cum)
    total, negative = row_sums(alpha, off), rows_with(~(alpha >= 0), off)
    positive = alpha > 0
    count = row_sums(positive, off)
    entropy = np.zeros(n)
    for length in sorted(set(count.tolist()) - {0}):  # the rows with this many positive weights
        rows = count == length
        x = alpha[np.repeat(rows, width) & positive].reshape(-1, length)
        x *= np.log(x)
        entropy[rows] = -x.sum(axis=1)
    del alpha, positive  # the copy of cum below takes their place
    entropy[entropy <= 0.0] = 0.0  # max(0, -sum), which also turns -0.0 into 0.0
    cov = np.divide(row_sums(cum > COVERAGE_THRESHOLD, off), width, out=np.zeros(n), where=width > 0)
    gap = "after a step that carries only features; store {} or features on this step"
    _raise_first(batch, [
        (~has_vec & ~has_feat, "no attention, cumulative attention, or features"),
        (rows_with(~np.isfinite(batch.attention), batch.att_offsets), "attention weights must be finite"),
        (rows_with(~np.isfinite(batch.cum_attention), batch.cum_offsets),
         "cumulative attention weights must be finite"),
        (bad_len, "attention vectors differ in length"),
        (decreased, "cumulative attention decreased"),
        (known_att & (width == 0), "attention vector is empty"),
        (known_att & negative, "attention weights must be non-negative"),
        (known_att & ~sums_to_one(total), lambda i: f"attention sums to {total[i]:.8f}, expected 1"),
        (has_vec & ~has_feat & ~known_att, "attention unknown " + gap.format("attention")),
        (has_vec & ~has_feat & ~known_cum, "cumulative attention unknown " + gap.format("cum_attention")),
        (known_cum & (width == 0), "cumulative attention vector is empty"),
        (known_cum & rows_with(~(cum >= 0), off), "cumulative attention weights must be non-negative"),
    ])
    filled = has_cum | known_cum
    return replace(
        batch,
        has_cum=filled,
        cum_offsets=offsets_of(np.where(filled, width, 0)),
        cum_attention=cum[np.repeat(filled, width)],
        has_features=np.ones(n, dtype=bool),
        entropy=np.where(has_feat, batch.entropy, entropy),
        coverage=np.where(has_feat, batch.coverage, cov),
    )


def ensure_features(batch: LogBatch) -> LogBatch:
    """``batch`` itself when every row stores features; else, once its steps
    are checked to run t = 1..n, ``enrich_batch`` of it."""
    if batch.has_features.all():
        return batch
    batch.check_step_order()
    return enrich_batch(batch)


def enrich(seq: SequenceRecord) -> SequenceRecord:
    """Fill (entropy, coverage) on every step of a sequence: ``enrich_batch``
    on a batch of its steps."""
    batch = replace(LogBatch.from_records(seq.steps), seq_ids=[seq.seq_id], seq_starts=np.array([0, len(seq.steps)]))
    return replace(seq, steps=tuple(enrich_batch(batch)))
