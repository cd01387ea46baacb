"""Calibration features derived from attention: entropy and input coverage.

``enrich_batch`` derives both, with ``cum_attention``, for a whole
``LogBatch`` in one columnar pass; ``attention_entropy`` and ``coverage``
are the one-step forms a decoder calls (each also takes a batch of rows).
Both give the same values bit for bit. Entropy is in nats; coverage counts
the source positions whose cumulative attention exceeds
``COVERAGE_THRESHOLD``, the one threshold that logs, fits, ``apply`` and
decoders share. An attention vector sums to 1 by its ``np.sum``, as the
log reader sums it (``records.row_sums``). ``ensure_features`` is the one
rule for rows without stored features; ``feature_columns`` (fits, apply)
and ``FeatureStream`` (the entropy partition) keep it without cum vectors.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import FeatureError, ValidationError
from .records import (PROB_ATOL, LogBatch, SequenceRecord, blocks, first_failed, offsets_of, row_sums, rows_with,
                      spans, sums_to_one)


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
    if arr.ndim > 1:
        return _entropy(arr.ravel(), np.full(len(arr), arr.shape[1]))
    x = arr[arr > 0]
    x *= np.log(x)
    return max(0.0, -float(x.sum()))


def _entropy(alpha: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each row's entropy, of flat rows of ``width`` weights ``alpha``: the rows
    with one count of positive weights at a time, as a 2-D array that numpy
    sums row by row as it sums one vector, so that no pass holds them all."""
    positive = alpha > 0
    count = row_sums(positive, offsets_of(width))
    entropy = np.zeros(len(width))
    for length in sorted(set(count.tolist()) - {0}):  # the rows with this many positive weights
        rows = count == length
        x = alpha[np.repeat(rows, width) & positive].reshape(-1, length)
        x *= np.log(x)
        entropy[rows] = -x.sum(axis=1)
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

    The one pass that derives ``cum_attention``, a block of whole sequences
    at a time (``records.blocks``), so that it holds one block's vectors and
    each sequence's recurrence still runs whole; ``feature_columns`` and the
    entropy partition read only entropy and coverage.
    """
    n = len(batch)
    filled, width, entropy, cov = np.empty(n, dtype=bool), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    # a filled row's cumulative vector is as long as its stored one
    cum = np.empty(int(np.where(batch.has_attention, np.diff(batch.att_offsets), np.diff(batch.cum_offsets)).sum()))
    end = 0
    for lo, hi in blocks(n, batch.seq_starts):
        entropy[lo:hi], cov[lo:hi], filled[lo:hi], width[lo:hi], values = _enrich(batch.block(lo, hi))
        values = values[np.repeat(filled[lo:hi], width[lo:hi])]
        cum[end : end + len(values)] = values
        end += len(values)
        del values  # before the next block's vectors are made
    return replace(
        batch,
        has_cum=filled,
        cum_offsets=offsets_of(np.where(filled, width, 0)),
        cum_attention=cum[:end],
        has_features=np.ones(n, dtype=bool),
        entropy=np.where(batch.has_features, batch.entropy, entropy),
        coverage=np.where(batch.has_features, batch.coverage, cov),
    )


@np.errstate(invalid="ignore", over="ignore")  # a non-finite or huge vector fails a check below, not numpy
def _enrich(batch: LogBatch, cumulative: bool = True) -> tuple[np.ndarray, ...]:
    """``enrich_batch`` of whole sequences: each row's entropy and, if
    ``cumulative``, its coverage, filled flag and width and every row's
    cumulative vector, ``width`` long (``enrich_batch`` keeps the filled
    rows' ones). Entropy reads the stored attention in place; only
    cumulative vectors or a step with only ``cum_attention`` run the step
    recurrence, whose one loop over step positions adds the same floats in
    the same order as a per-step loop. Whether a row's vectors are known is
    a scan of the row flags, so that no check reads a copy."""
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
    att_fits, cum_fits = has_att & ~bad_len, has_cum & ~bad_len
    # a running sum is known from its sequence's start or a fitting cum_attention, through fitting attention
    at_start = np.diff(batch.seq_index, prepend=-1) != 0
    run_known = (att_fits | cum_fits)[np.maximum.accumulate(np.where(at_start | ~att_fits | cum_fits, np.arange(n), 0))]
    known_att = has_vec & ((width == 0) | att_fits | (cum_fits & (at_start | np.append(True, run_known[:-1]))))
    known_cum = has_vec & ((width == 0) | run_known)

    decreased = np.zeros(n, dtype=bool)
    if cumulative or (has_cum & ~has_att).any():  # the step recurrence, on copies in which NaN marks an unknown vector
        off = offsets_of(width)
        alpha, cum = np.full(off[-1], np.nan), np.full(off[-1], np.nan)
        for out, values, offsets, has in ((alpha, batch.attention, batch.att_offsets, has_att),
                                          (cum, batch.cum_attention, batch.cum_offsets, has_cum)):
            if (has & bad_len).any():  # a vector of the wrong width stays unknown; its row fails
                values = values[np.repeat(has & ~bad_len, np.diff(offsets))]
            out[np.repeat(has & ~bad_len, width)] = values
        # the sequences by length, longest first: those still running at a step are a prefix
        seq_len = np.diff(starts)
        order = np.argsort(-seq_len, kind="stable")
        w = seq_width[order]
        at_first = spans(off[starts[:-1][order]], w)
        back = np.repeat(w, w)
        live = offsets_of(w)[np.searchsorted(-seq_len[order], -np.arange(seq_len.max(initial=0)), side="left")]
        for k, m in enumerate(live.tolist()):  # a row's predecessor sits one width earlier
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
    else:  # the stored attention, read in place
        alpha, off = batch.attention, batch.att_offsets
    total, negative = row_sums(alpha, off), rows_with(~(alpha >= 0), off)
    entropy = _entropy(alpha, np.diff(off))
    del alpha  # before the temporaries of the checks and coverage below
    gap = "after a step that carries only features; store {} or features on this step"
    problems = [  # (failed rows, message) pairs: the first row failing any raises its first message
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
        # a running sum of checked weights is non-negative, so only a stored vector can fail
        (known_cum & rows_with(~(batch.cum_attention >= 0), batch.cum_offsets),
         "cumulative attention weights must be non-negative"),
    ]
    first = first_failed([failed for failed, _ in problems])
    if (first < len(problems)).any():
        row = int(np.argmax(first < len(problems)))
        message = problems[first[row]][1]
        raise FeatureError(f"{batch.where(row)}: {message(row) if callable(message) else message}")
    if not cumulative:
        return (entropy,)
    cov = np.divide(row_sums(cum > COVERAGE_THRESHOLD, off), width, out=np.zeros(n), where=width > 0)
    return entropy, cov, has_cum | known_cum, width, cum


def _lacks_features(batch: LogBatch) -> bool:
    """Whether some row of ``batch`` lacks stored features, once its steps are checked to run t = 1..n."""
    if batch.has_features.all():
        return False
    batch.check_step_order()
    return True


def ensure_features(batch: LogBatch) -> LogBatch:
    """``batch`` itself when every row stores features; else, once its steps
    are checked to run t = 1..n, ``enrich_batch`` of it."""
    return enrich_batch(batch) if _lacks_features(batch) else batch


def feature_columns(batch: LogBatch) -> tuple[np.ndarray, np.ndarray]:
    """The entropy and coverage columns of ``ensure_features(batch)``, derived
    a block of whole sequences at a time without a ``cum_attention`` column."""
    if not _lacks_features(batch):
        return batch.entropy, batch.coverage
    derived = np.empty((2, len(batch)))
    for lo, hi in blocks(len(batch), batch.seq_starts):
        derived[:, lo:hi] = _enrich(batch.block(lo, hi))[:2]
    return tuple(np.where(batch.has_features, *pair) for pair in zip((batch.entropy, batch.coverage), derived))


class FeatureStream:
    """The entropy of ``ensure_features`` of a log given as blocks of whole
    sequences in order. Whether a row lacks features is known only at the
    end, so every block is checked and its entropy derived, and ``check``
    raises the first step-order error, else the first FeatureError, once
    some row lacked features."""

    def __init__(self) -> None:
        self.lacking, self.order, self.feature = False, None, None

    def entropy(self, batch: LogBatch) -> np.ndarray | None:
        """Each row's entropy, stored or derived; None if the block lacks features and fails enrichment."""
        stored = batch.has_features.all()
        self.lacking |= not stored
        try:
            batch.check_step_order()
        except ValidationError as exc:
            self.order = self.order or exc
        try:
            return np.where(batch.has_features, batch.entropy, _enrich(batch, cumulative=False)[0])
        except FeatureError as exc:
            self.feature = self.feature or exc
            return batch.entropy if stored else None

    def check(self) -> None:
        if self.lacking and (self.order or self.feature):
            raise self.order or self.feature


def enrich(seq: SequenceRecord) -> SequenceRecord:
    """Fill (entropy, coverage) on every step of a sequence: ``enrich_batch``
    on a batch of its steps."""
    batch = replace(LogBatch.from_records(seq.steps), seq_ids=[seq.seq_id], seq_starts=np.array([0, len(seq.steps)]))
    return replace(seq, steps=tuple(enrich_batch(batch)))
