"""Prediction-log data model: token/sequence records, the columnar LogBatch,
binning, histograms, JSONL IO.

A log file is UTF-8, line-delimited JSON, one token record per line. Each
record stores a sparse next-token distribution (explicit ``entries`` plus a
``rest_mass`` spread uniformly over the unlisted tokens), the gold token,
and optional attention-derived data. ``read_log_file`` parses a whole log
once into a ``LogBatch`` of columns and checks it column by column;
``parse_log_line`` and ``validate_record`` are one-row calls into the same
parser and checks, and far slower per row than a whole log.
``pooled_layout`` turns a batch into the padded rows of slots that the
metrics, fitting and apply all run on. Records are immutable and safe to
share across threads.

Every path decides that weights sum to 1 (``sums_to_one``) by one sum per
kind: a distribution by its running total in entry order
(``running_sums``), an attention vector by its ``np.sum`` (``row_sums``).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_not
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, ValidationError

PROB_ATOL = 1e-6
_ROWS_PER_CHUNK = 1024

INT_FIELDS = ("t", "vocab_size", "eos_id", "gold_id")
VECTOR_FIELDS = ("attention", "cum_attention")


@dataclass(frozen=True, slots=True)
class StepFeatures:
    """Per-step calibration features: attention entropy (nats) and input coverage."""

    entropy: float
    coverage: float


@dataclass(frozen=True, slots=True)
class TokenRecord:
    """One decoding step evaluated under teacher forcing."""

    seq_id: str
    t: int  # 1-based step index
    vocab_size: int
    eos_id: int
    gold_id: int
    entries: tuple[tuple[int, float], ...]
    rest_mass: float = 0.0
    attention: tuple[float, ...] | None = None
    cum_attention: tuple[float, ...] | None = None
    features: StepFeatures | None = None


@dataclass(frozen=True, slots=True)
class SequenceRecord:
    """An ordered run of token records belonging to one decoded sequence."""

    seq_id: str
    steps: tuple[TokenRecord, ...]
    source: tuple[int, ...] | None = None
    reference: tuple[int, ...] | None = None


@dataclass(frozen=True)
class BinningConfig:
    """Equal-width confidence bins over [0, 1]."""

    num_bins: int = 20

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise ValidationError("num_bins", f"must be >= 1, got {self.num_bins}")

    def index_array(self, p: np.ndarray) -> np.ndarray:
        """Each ``p``'s bin, left-closed and right-open with the last bin
        closed at 1, in the narrowest unsigned dtype that also holds
        ``num_bins``, which can then mark no bin."""
        idx = np.multiply(p, self.num_bins, dtype=np.float64)
        return np.clip(idx, 0, self.num_bins - 1, out=idx).astype(np.min_scalar_type(self.num_bins))

    def edges(self, b: int) -> tuple[float, float]:
        return b / self.num_bins, (b + 1) / self.num_bins


@dataclass
class ReliabilityHistogram:
    """Per-bin aggregates behind a calibration score.

    ``weight`` holds the raw bin weight (a prediction count for top-1
    metrics, probability mass for the weighted metric), ``confidence_sum``
    and ``accuracy_sum`` the weight-aligned confidence and correctness
    sums, and ``count`` the total number of distributions seen.
    """

    num_bins: int
    weight: np.ndarray
    confidence_sum: np.ndarray
    accuracy_sum: np.ndarray
    count: float

    @classmethod
    def empty(cls, num_bins: int) -> "ReliabilityHistogram":
        return cls(
            num_bins=num_bins,
            weight=np.zeros(num_bins),
            confidence_sum=np.zeros(num_bins),
            accuracy_sum=np.zeros(num_bins),
            count=0.0,
        )

    @property
    def mass(self) -> np.ndarray:
        """Normalized bin weights w_b; zeros when the histogram is empty."""
        if self.count <= 0:
            return np.zeros(self.num_bins)
        return self.weight / self.count


def check_tail_room(vocab_size: int, listed: int, rest_mass: float, line_number: int | None = None) -> None:
    """Reject ``rest_mass`` left over when every token of the vocabulary is listed."""
    if listed >= vocab_size and rest_mass > 0:
        raise ValidationError(
            "rest_mass", f"{rest_mass} left over with all {vocab_size} tokens listed", line_number=line_number,
        )


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the spans ``[start, start + length)``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def first_failed(checks: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's first failing check, given each check's failed rows in
    order; ``len(checks)`` for a row that fails none."""
    first = np.full(len(checks[0]), len(checks))
    for k in reversed(range(len(checks))):
        first[checks[k]] = k
    return first


def rows_with(flagged: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows of a CSR column holding at least one flagged value."""
    at = np.searchsorted(np.flatnonzero(flagged), offsets)  # the flagged values before each row
    return at[1:] > at[:-1]


def row_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR row's ``np.sum``, bit for bit, or its count of True values:
    the rows of one length are summed together as the rows of a 2-D array,
    which numpy reduces row by row with the same pairwise summation."""
    lengths = np.diff(offsets)
    sums = np.zeros(len(lengths), dtype=np.int64 if values.dtype == bool else np.float64)
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if len(group) and lengths[group[0]]:
            sums[group] = values[offsets[group, None] + np.arange(lengths[group[0]])].sum(axis=1)
    return sums


def running_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's running total along the last axis: the sum of a distribution
    that every check takes. ``LogBatch.errors`` adds a line's entries and
    then its ``rest_mass`` in order too, and zeros add exactly."""
    return np.add.accumulate(rows, axis=-1)[..., -1]


def sums_to_one(total: np.ndarray) -> np.ndarray:
    """Whether each sum lies within ``PROB_ATOL`` of 1; NaN does not."""
    return abs(total - 1.0) <= PROB_ATOL


@dataclass(eq=False, repr=False)
class LogBatch:
    """A log as columns, one row per token record, in file order.

    Variable-length fields are CSR: row i's entries are
    ``ids[offsets[i]:offsets[i + 1]]`` with their ``probs``, and its
    attention is ``attention[att_offsets[i]:att_offsets[i + 1]]`` when
    ``has_attention[i]`` (likewise ``cum_attention``). ``entropy`` and
    ``coverage`` are NaN where ``has_features`` is False. A sequence is a
    run of consecutive rows with one seq_id; sequence s covers rows
    ``seq_starts[s]:seq_starts[s + 1]``. ``lines`` holds each row's line in
    its file, for error messages, or is None.
    """

    seq_ids: list[str]
    seq_starts: np.ndarray      # (S + 1,)
    t: np.ndarray               # (N,) int64, as are vocab_size, eos_id and gold_id
    vocab_size: np.ndarray
    eos_id: np.ndarray
    gold_id: np.ndarray
    offsets: np.ndarray         # (N + 1,)
    ids: np.ndarray             # (E,) int64
    probs: np.ndarray           # (E,)
    rest_mass: np.ndarray       # (N,)
    has_attention: np.ndarray   # (N,) bool
    att_offsets: np.ndarray     # (N + 1,)
    attention: np.ndarray
    has_cum: np.ndarray
    cum_offsets: np.ndarray
    cum_attention: np.ndarray
    has_features: np.ndarray
    entropy: np.ndarray         # (N,)
    coverage: np.ndarray        # (N,)
    lines: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[TokenRecord]:
        return (_record(*row) for row in self._rows(0, len(self)))

    def __getitem__(self, i: int) -> TokenRecord:
        i = range(len(self))[i]
        return _record(*next(self._rows(i, i + 1)))

    @cached_property
    def seq_index(self) -> np.ndarray:
        """Each row's sequence."""
        return np.repeat(np.arange(len(self.seq_ids)), np.diff(self.seq_starts))

    @cached_property
    def layout(self) -> PooledLayout:
        """The pooled-tail layout, built once and shared by every metric and
        fit that reads this batch."""
        return pooled_layout(self)

    def where(self, row: int) -> str:
        """``sequence 'id' step t`` of a row, for error messages."""
        return f"sequence {self.seq_ids[self.seq_index[row]]!r} step {int(self.t[row])}"

    def line(self, row: int) -> int | None:
        return None if self.lines is None else int(self.lines[row])

    def _rows(self, start: int, stop: int) -> Iterator[tuple]:
        """Rows start..stop-1 as plain Python values, in TokenRecord field
        order; entries as (id, prob) pairs and features as a pair or None.
        The columns become Python values ``_ROWS_PER_CHUNK`` rows at a time,
        so a long log's rows never all exist as Python objects at once."""
        for lo in range(start, stop, _ROWS_PER_CHUNK):
            hi = min(lo + _ROWS_PER_CHUNK, stop)

            def column(values, offsets):
                first = offsets[lo]
                return values[first : offsets[hi]].tolist(), (offsets[lo : hi + 1] - first).tolist()

            ids, off = column(self.ids, self.offsets)
            probs, _ = column(self.probs, self.offsets)
            att, att_off = column(self.attention, self.att_offsets)
            cum, cum_off = column(self.cum_attention, self.cum_offsets)
            rows = zip(*(c[lo:hi].tolist() for c in (
                self.seq_index, self.t, self.vocab_size, self.eos_id, self.gold_id, self.rest_mass,
                self.has_attention, self.has_cum, self.has_features, self.entropy, self.coverage,
            )))
            for k, (seq, t, vocab, eos, gold, rest, has_att, has_cum, has_feat, ent, cov) in enumerate(rows):
                yield (
                    self.seq_ids[seq], t, vocab, eos, gold,
                    zip(ids[off[k] : off[k + 1]], probs[off[k] : off[k + 1]]), rest,
                    att[att_off[k] : att_off[k + 1]] if has_att else None,
                    cum[cum_off[k] : cum_off[k + 1]] if has_cum else None,
                    (ent, cov) if has_feat else None,
                )

    def _text(self, lo: int, hi: int) -> str:
        """Rows lo..hi-1 as the JSONL lines ``json.dumps`` writes for their
        records (compact separators, ASCII). Each column takes one ``tolist``,
        each float one ``repr`` and each seq_id one ``json.dumps``."""
        def joined(offsets, text_of):
            first = offsets[lo]
            text = text_of(slice(first, offsets[hi]))
            bounds = (offsets[lo : hi + 1] - first).tolist()
            return [",".join(text[a:b]) for a, b in zip(bounds, bounds[1:])]

        def vector(name, values, offsets, has):
            rows = joined(offsets, lambda span: _json_floats(values[span]))
            return [f',"{name}":[{row}]' if h else "" for row, h in zip(rows, has[lo:hi].tolist())]

        s0 = int(np.searchsorted(self.seq_starts, lo, side="right")) - 1
        s1 = int(np.searchsorted(self.seq_starts, hi))
        counts = np.diff(np.clip(self.seq_starts[s0 : s1 + 1], lo, hi)).tolist()
        names = chain.from_iterable(map(repeat, map(json.dumps, self.seq_ids[s0:s1]), counts))
        entries = joined(self.offsets, lambda span: [
            f"[{i},{p}]" for i, p in zip(self.ids[span].tolist(), _json_floats(self.probs[span]))])
        has = self.has_features[lo:hi].tolist()
        feats = zip(_json_floats(self.entropy[lo:hi]), _json_floats(self.coverage[lo:hi]), has)
        features = [f',"features":{{"entropy":{e},"coverage":{c}}}' if h else "" for e, c, h in feats]
        rows = zip(
            names, *(c[lo:hi].tolist() for c in (self.t, self.vocab_size, self.eos_id, self.gold_id)),
            entries, _json_floats(self.rest_mass[lo:hi]),
            vector("attention", self.attention, self.att_offsets, self.has_attention),
            vector("cum_attention", self.cum_attention, self.cum_offsets, self.has_cum), features,
        )
        return "".join([
            f'{{"seq_id":{i},"t":{t},"vocab_size":{v},"eos_id":{e},"gold_id":{g},"entries":[{k}],'
            f'"rest_mass":{r}{a}{c}{f}}}\n' for i, t, v, e, g, k, r, a, c, f in rows
        ])

    @classmethod
    def from_records(cls, records: Iterable[TokenRecord], lines: Sequence[int] | None = None) -> "LogBatch":
        """The batch of in-memory records; they are not validated."""
        records = list(records)
        n = len(records)

        def column(name, dtype=np.int64):
            return np.fromiter(map(attrgetter(name), records), dtype=dtype, count=n)

        def present(values):
            return np.fromiter(map(is_not, values, repeat(None)), dtype=bool, count=n)

        entries = column("entries", object)
        counts = np.fromiter(map(len, entries), dtype=np.int64, count=n)
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(entries)), dtype=np.float64, count=2 * int(counts.sum()),
        )
        seq_ids = column("seq_id", object)
        starts = np.flatnonzero(np.append(True, seq_ids[1:] != seq_ids[:-1])) if n else np.zeros(0, dtype=np.int64)

        def vector_column(name):
            vecs = list(map(attrgetter(name), records))
            has = present(vecs)
            lengths = np.zeros(n, dtype=np.int64)
            lengths[has] = np.fromiter(map(len, compress(vecs, has)), dtype=np.int64, count=int(has.sum()))
            values = np.fromiter(chain.from_iterable(compress(vecs, has)), dtype=np.float64, count=int(lengths.sum()))
            return has, offsets_of(lengths), values

        feats = list(map(attrgetter("features"), records))
        has_feat = present(feats)
        entropy, coverage = np.full(n, math.nan), np.full(n, math.nan)
        for name, out in (("entropy", entropy), ("coverage", coverage)):
            out[has_feat] = np.fromiter(map(attrgetter(name), compress(feats, has_feat)), dtype=np.float64)
        has_att, att_offsets, attention = vector_column("attention")
        has_cum, cum_offsets, cum_attention = vector_column("cum_attention")
        return cls(
            seq_ids=seq_ids[starts].tolist(),
            seq_starts=np.append(starts, n),
            t=column("t"), vocab_size=column("vocab_size"), eos_id=column("eos_id"), gold_id=column("gold_id"),
            offsets=offsets_of(counts),
            ids=flat[0::2].astype(np.int64),
            probs=flat[1::2],
            rest_mass=column("rest_mass", np.float64),
            has_attention=has_att, att_offsets=att_offsets, attention=attention,
            has_cum=has_cum, cum_offsets=cum_offsets, cum_attention=cum_attention,
            has_features=has_feat, entropy=entropy, coverage=coverage,
            lines=None if lines is None else np.asarray(lines, dtype=np.int64),
        )

    def validate(self) -> None:
        """Check every record invariant over whole columns. The first bad
        row raises ValidationError naming its line and the field of its
        first failing check."""
        for _, error in self.errors():
            raise error

    def errors(self) -> Iterator[tuple[int, ValidationError]]:
        """Each row that breaks a record invariant, in order, with the error
        of its first failing check in the order the checks are listed here."""
        n = len(self)
        vocab, rest, att, cum = self.vocab_size, self.rest_mass, self.attention, self.cum_attention
        counts = np.diff(self.offsets)
        entry_row = np.repeat(np.arange(n), counts)
        ids, probs = self.ids, self.probs
        # per entry, in order: id range, an earlier entry with the same id, probability range
        id_bad = (ids < 0) | (ids >= vocab[entry_row])
        # a stable sort by (row, id) puts an id's repeats right after its first entry
        low, span = int(ids.min(initial=0)), int(ids.max(initial=0)) - int(ids.min(initial=0)) + 1
        if n * span < 2**62:
            by_id = np.argsort(entry_row * span + (ids - low), kind="stable")
        else:  # the combined key would overflow
            by_id = np.lexsort((ids, entry_row))
        repeat = np.zeros(len(ids), dtype=bool)
        repeat[by_id[1:]] = (entry_row[by_id[1:]] == entry_row[by_id[:-1]]) & (ids[by_id[1:]] == ids[by_id[:-1]])
        prob_bad = ~((probs >= 0.0) & (probs <= 1.0 + PROB_ATOL))
        entry_bad = id_bad | repeat | prob_bad
        # a row's entries in entry order and then its rest_mass, added as a running total
        total = np.bincount(entry_row, weights=probs, minlength=n) + rest

        att_len, cum_len = np.diff(self.att_offsets), np.diff(self.cum_offsets)
        att_sum = row_sums(att, self.att_offsets)  # the sum of an attention vector that every check takes
        paired = self.has_attention & self.has_cum & (att_len == cum_len)
        below = np.zeros(n, dtype=bool)
        if paired.any():
            c = cum[spans(self.cum_offsets[:-1][paired], cum_len[paired])]
            a = att[spans(self.att_offsets[:-1][paired], att_len[paired])]
            below[paired] = rows_with(~(c >= a - PROB_ATOL), offsets_of(att_len[paired]))

        def entry_message(i):
            e = self.offsets[i] + int(np.argmax(entry_bad[self.offsets[i] : self.offsets[i + 1]]))
            if id_bad[e]:
                return f"token id {ids[e]} out of range"
            if repeat[e]:
                return f"duplicate token id {ids[e]}"
            return f"probability {float(probs[e])} outside [0, 1]"

        checks = (
            ("vocab_size", vocab < 1, lambda i: f"must be positive, got {vocab[i]}"),
            ("t", self.t < 1, lambda i: f"step index is 1-based, got {self.t[i]}"),
            ("eos_id", (self.eos_id < 0) | (self.eos_id >= vocab), lambda i: f"out of range for V={vocab[i]}"),
            ("gold_id", (self.gold_id < 0) | (self.gold_id >= vocab), lambda i: f"out of range for V={vocab[i]}"),
            ("entries", counts > vocab, lambda i: "more entries than vocabulary slots"),
            ("entries", rows_with(entry_bad, self.offsets), entry_message),
            ("rest_mass", ~((rest >= -PROB_ATOL) & (rest <= 1.0 + PROB_ATOL)),
             lambda i: f"{float(rest[i])} outside [0, 1]"),
            ("entries", ~sums_to_one(total),
             lambda i: f"probabilities + rest_mass sum to {total[i]:.8f}, expected 1"),
            ("rest_mass", (counts >= vocab) & (rest > 0),
             lambda i: f"{float(rest[i])} left over with all {vocab[i]} tokens listed"),
            ("attention", self.has_attention & (att_len == 0), lambda i: "must be non-empty when present"),
            ("attention", rows_with(~((att >= 0) & (att < math.inf)), self.att_offsets),
             lambda i: "weights must be finite and non-negative"),
            ("attention", self.has_attention & ~sums_to_one(att_sum),
             lambda i: f"sums to {att_sum[i]:.8f}, expected 1"),
            ("cum_attention", rows_with(~((cum >= 0) & (cum < math.inf)), self.cum_offsets),
             lambda i: "weights must be finite and non-negative"),
            ("cum_attention", self.has_attention & self.has_cum & (att_len != cum_len),
             lambda i: "length differs from attention"),
            ("cum_attention", below, lambda i: "element below the current attention weight"),
            ("features", self.has_features & ~((self.entropy >= 0.0) & (self.entropy < math.inf)),
             lambda i: "entropy must be finite and non-negative"),
            ("features", self.has_features & ~((self.coverage >= 0.0) & (self.coverage <= 1.0)),
             lambda i: "coverage outside [0, 1]"),
        )
        first = first_failed([failed for _, failed, _ in checks])
        for row in np.flatnonzero(first < len(checks)).tolist():
            fieldname, _, message = checks[first[row]]
            yield row, ValidationError(fieldname, message(row), line_number=self.line(row))

    def check_step_order(self) -> None:
        """Steps of every sequence must run t = 1..n with no gaps."""
        expected = np.arange(len(self)) - self.seq_starts[self.seq_index] + 1
        wrong = self.t != expected
        if wrong.any():
            i = int(np.argmax(wrong))
            raise ValidationError(
                "t", f"sequence {self.seq_ids[self.seq_index[i]]!r} has step {self.t[i]} "
                f"where {expected[i]} was expected",
            )


def offsets_of(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of rows with ``counts`` values each."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value as ``json.dumps`` spells it: its ``repr``, or NaN, Infinity or -Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    return text if np.isfinite(values).all() else [_NON_FINITE.get(v, v) for v in text]


Records = LogBatch | Iterable[TokenRecord]


def as_batch(records: Records) -> LogBatch:
    """``records`` as a batch, which metrics, fits and apply all take."""
    return records if isinstance(records, LogBatch) else LogBatch.from_records(records)


def _record(seq_id, t, vocab_size, eos_id, gold_id, entries, rest_mass, attention, cum_attention, features):
    return TokenRecord(
        seq_id=seq_id, t=t, vocab_size=vocab_size, eos_id=eos_id, gold_id=gold_id,
        entries=tuple(entries), rest_mass=rest_mass,
        attention=None if attention is None else tuple(attention),
        cum_attention=None if cum_attention is None else tuple(cum_attention),
        features=None if features is None else StepFeatures(*features),
    )


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float


def _type_problem(payload: dict) -> str | None:
    """Name the first field whose JSON type the log format does not allow:
    integer fields take JSON integers only, probabilities and the other
    weights JSON numbers only (never bools or strings)."""
    for name in INT_FIELDS:
        if name in payload and type(payload[name]) is not int:
            return f"{name} must be a JSON integer, got {payload[name]!r}"
    if "rest_mass" in payload and not _is_number(payload["rest_mass"]):
        return f"rest_mass must be a JSON number, got {payload['rest_mass']!r}"
    entries = payload.get("entries", [])
    if type(entries) is not list:
        return f"entries must be a list, got {entries!r}"
    for entry in entries:
        if not (type(entry) is list and len(entry) == 2 and type(entry[0]) is int and _is_number(entry[1])):
            return f"entries: {entry!r} is not a [JSON integer, JSON number] pair"
    for name in VECTOR_FIELDS:
        vector = payload.get(name)
        if vector is not None and not (type(vector) is list and all(map(_is_number, vector))):
            return f"{name} must be a list of JSON numbers"
    features = payload.get("features")
    if features is not None and not (type(features) is dict and all(
        _is_number(features.get(key)) for key in ("entropy", "coverage")
    )):
        return "features must hold a JSON number for entropy and for coverage"
    return None


class _Columns:
    """The columns of a log being read, grown one line at a time. Integers
    go into int64 arrays and weights into float64 arrays, which reject
    strings, nulls and (for integers) JSON numbers with a fraction or an
    exponent; a line that fails leaves the columns as they were."""

    def __init__(self) -> None:
        self.seq_ids: list[str] = []
        self.seq_starts = array("q")
        self.ints = array("q")  # t, vocab_size, eos_id, gold_id of each row
        self.offsets, self.ids, self.probs = array("q", [0]), array("q"), array("d")
        self.rest_mass = array("d")
        # per vector field: values, offsets, presence
        self.vectors = {name: (array("d"), array("q", [0]), array("b")) for name in VECTOR_FIELDS}
        self.features, self.has_features = array("d"), array("b")  # entropy, coverage of each row
        self.lines = array("q")

    def add(self, line: str, line_number: int | None) -> None:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line_number=line_number, offset=exc.pos) from exc
        if type(payload) is not dict:
            raise ParseError("record must be a JSON object", line_number=line_number)
        rows = len(self.lines)
        try:
            self._append(payload)
            # both array types take a JSON bool for 0 or 1; only a line spelling one can hold one
            if ("true" in line or "false" in line) and _type_problem(payload):
                raise TypeError("bool in a numeric field")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            self._truncate(rows)
            problem = _type_problem(payload) or f"bad record structure: {exc!r}"
            raise ParseError(problem, line_number=line_number) from exc
        self.lines.append(0 if line_number is None else line_number)

    def _append(self, payload: dict) -> None:
        entries = payload["entries"]
        if type(entries) is not list:
            raise TypeError("entries must be a list")
        seq_id = str(payload["seq_id"])
        self.ints.extend((payload["t"], payload["vocab_size"], payload["eos_id"], payload["gold_id"]))
        if entries:
            columns = tuple(zip(*entries, strict=True))
            if len(columns) != 2:
                raise ValueError("an entry is not a [token_id, probability] pair")
            self.ids.extend(columns[0])
            self.probs.extend(columns[1])
        self.rest_mass.append(payload.get("rest_mass", 0.0))
        for name, (values, offsets, present) in self.vectors.items():
            vector = payload.get(name)
            if vector is not None:
                if type(vector) is not list:
                    raise TypeError(f"{name} must be a list")
                values.extend(vector)
            offsets.append(len(values))
            present.append(vector is not None)
        features = payload.get("features")
        self.features.extend((math.nan, math.nan) if features is None else (features["entropy"], features["coverage"]))
        self.has_features.append(features is not None)
        if not self.seq_ids or seq_id != self.seq_ids[-1]:
            self.seq_ids.append(seq_id)
            self.seq_starts.append(len(self.lines))
        self.offsets.append(len(self.ids))

    def _truncate(self, rows: int) -> None:
        del self.offsets[rows + 1 :]
        if self.seq_starts and self.seq_starts[-1] == rows:
            del self.seq_starts[-1], self.seq_ids[-1]
        del self.ints[4 * rows :], self.rest_mass[rows:], self.features[2 * rows :], self.has_features[rows:]
        del self.ids[self.offsets[-1] :], self.probs[self.offsets[-1] :]
        for values, offsets, present in self.vectors.values():
            del offsets[rows + 1 :], present[rows:]
            del values[offsets[-1] :]

    def batch(self, numbered: bool = True) -> LogBatch:
        n = len(self.lines)
        t, vocab, eos, gold = np.frombuffer(self.ints, dtype=np.int64).reshape(n, 4).T.copy()
        entropy, coverage = np.frombuffer(self.features, dtype=np.float64).reshape(n, 2).T.copy()
        (att, att_off, has_att), (cum, cum_off, has_cum) = (
            (np.frombuffer(v, dtype=np.float64), np.frombuffer(o, dtype=np.int64), np.frombuffer(p, dtype=bool))
            for v, o, p in self.vectors.values()
        )
        return LogBatch(
            seq_ids=self.seq_ids,
            seq_starts=np.append(np.frombuffer(self.seq_starts, dtype=np.int64), n),
            t=t, vocab_size=vocab, eos_id=eos, gold_id=gold,
            offsets=np.frombuffer(self.offsets, dtype=np.int64),
            ids=np.frombuffer(self.ids, dtype=np.int64),
            probs=np.frombuffer(self.probs, dtype=np.float64),
            rest_mass=np.frombuffer(self.rest_mass, dtype=np.float64),
            has_attention=has_att, att_offsets=att_off, attention=att,
            has_cum=has_cum, cum_offsets=cum_off, cum_attention=cum,
            has_features=np.frombuffer(self.has_features, dtype=bool),
            entropy=entropy, coverage=coverage,
            lines=np.frombuffer(self.lines, dtype=np.int64) if numbered else None,
        )


def validate_record(record: TokenRecord, line_number: int | None = None) -> TokenRecord:
    """Check every record invariant, raising ValidationError naming the field.

    A one-row ``LogBatch.validate``: it costs about 0.3-0.5 ms a call, so
    check many records as one batch with ``LogBatch.validate``.
    """
    LogBatch.from_records([record], lines=None if line_number is None else [line_number]).validate()
    return record


def parse_log_line(line: str, line_number: int | None = None) -> TokenRecord:
    """Parse one JSONL log line into a validated TokenRecord.

    A one-line ``read_log``: it costs about 0.3-0.5 ms a call, so parse
    many lines with ``read_log`` or ``read_log_file``.
    """
    columns = _Columns()
    columns.add(line, line_number)
    batch = columns.batch(numbered=line_number is not None)
    batch.validate()
    return batch[0]


def serialize_record(record: TokenRecord) -> str:
    """Inverse of parse_log_line; parse(serialize(r)) equals r. A one-row
    ``write_log_file``, so write many records with that."""
    return LogBatch.from_records([record])._text(0, 1)[:-1]


def densify(record: TokenRecord) -> np.ndarray:
    """Expand a sparse record into a dense probability vector of length V:
    its ``pooled_layout`` row, scattered to the tokens its slots stand for.

    Listed entries keep their probabilities; the remaining V-K tokens share
    rest_mass (0 if it is negative) uniformly. All are divided by the total
    the layout divides by, so the result equals the layout bit for bit and
    sums to 1 within 1e-9 even when the stored values only sum to 1 within
    the parse tolerance.
    """
    check_tail_room(record.vocab_size, len(record.entries), record.rest_mass)
    return _dense_row(LogBatch.from_records([record]))


def _dense_row(batch: LogBatch) -> np.ndarray:
    """Row 0 of the batch's layout, scattered to the V tokens its slots stand for."""
    layout = batch.layout
    ids, prob = layout.ids[0, :-1], layout.prob[0]
    # every unlisted token gets the tail's share; index V takes a slot that stands for no token
    dense = np.full(int(batch.vocab_size[0]) + 1, prob[-1])
    dense[ids] = prob[:-1]
    return dense[:-1]


@dataclass
class PooledLayout:
    """A batch of sparse distributions as padded rows of slots, O(N*K).

    Row i's listed entries fill columns 0..K_i-1 in input order. Column W-2
    holds EOS when it is unlisted; column W-1 pools the other unlisted
    tokens, which all share one probability, into one slot standing for
    ``mult`` tokens; ``densify`` scatters a row back to its V tokens. Slots
    with zero probability, padding included, are inactive. ``ids`` names
    each slot's token: the tail slot carries its smallest id, and a slot
    standing for no token carries V, so the smallest id among the most
    probable slots is the argmax of ``densify``.
    """

    prob: np.ndarray        # (N, W) normalized per-token probability, 0 where inactive
    mult: np.ndarray        # (N, W) tokens per slot: the tail count in column W-1, else 1
    gold: np.ndarray        # (N,) column of the gold token
    eos: np.ndarray         # (N,) column of the EOS token
    ids: np.ndarray | None = None       # (N, W) token id of each slot; None in a decoder step
    entropy: np.ndarray | None = None   # (N,) attention entropy, variable recalibration only
    coverage: np.ndarray | None = None  # (N,) input coverage, variable recalibration only

    @cached_property
    def active(self) -> np.ndarray:
        return self.prob > 0

    @cached_property
    def slots(self) -> ActiveSlots:
        """The active slots as flat vectors, built once per layout, so that
        every pass of the calibrators runs over M slots, not N x W."""
        index = self.active.ravel().nonzero()[0]
        logp = np.full(len(index) + 1, -np.inf)
        np.log(self.prob.ravel().take(index), out=logp[:-1])
        return ActiveSlots(index, index // self.prob.shape[1], logp, self.mult.ravel().take(index))

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's gold and EOS slot as a position in ``slots``, or M
        where that slot is inactive: what the fits' loss and the EOS
        correction read, so a single temperature never builds them."""
        index = self.slots.index
        position = np.full(self.prob.size, len(index))
        position[index] = np.arange(len(index))
        start = np.arange(0, self.prob.size, self.prob.shape[1])
        return position.take(start + self.gold), position.take(start + self.eos)


class ActiveSlots(NamedTuple):
    """``PooledLayout.slots``: the M active slots in row-major order."""

    index: np.ndarray  # (M,) flat index of each active slot
    row: np.ndarray    # (M,) its row
    logp: np.ndarray   # (M + 1,) its log-probability, then -inf at position M
    mult: np.ndarray   # (M,) the tokens it stands for


def pooled_layout(records: Records) -> PooledLayout:
    """The pooled-tail layout of a batch (or of records), the one place that
    normalizes a sparse record and pools its unlisted tail."""
    batch = as_batch(records)
    n = len(batch)
    counts = np.diff(batch.offsets)
    listed, probs = batch.ids, batch.probs
    vocab, eos_id, gold_id, rest_mass = batch.vocab_size, batch.eos_id, batch.gold_id, batch.rest_mass
    crowded = (counts == vocab) & (rest_mass > 0)
    if crowded.any():
        i = int(np.argmax(crowded))
        check_tail_room(int(vocab[i]), int(counts[i]), float(rest_mass[i]))

    width = (int(counts.max()) if n else 0) + 2
    eos_col, tail_col = width - 2, width - 1
    rows = np.arange(n)
    row = np.repeat(rows, counts)
    col = np.arange(len(listed)) - np.repeat(batch.offsets[:-1], counts)

    unlisted = vocab - counts
    share = np.divide(np.maximum(rest_mass, 0.0), unlisted, out=np.zeros(n), where=unlisted > 0)
    total = np.bincount(row, weights=probs, minlength=n) + unlisted * share
    total[total <= 0] = 1.0

    eos = np.full(n, eos_col)
    hit = listed == eos_id[row]
    eos[row[hit]] = col[hit]
    gold = np.where(gold_id == eos_id, eos_col, tail_col)
    hit = listed == gold_id[row]
    gold[row[hit]] = col[hit]

    eos_unlisted = eos == eos_col
    tail_count = unlisted - eos_unlisted
    tail_share = share / total
    prob = np.zeros((n, width))
    prob[row, col] = probs / total[row]
    prob[eos_unlisted, eos_col] = tail_share[eos_unlisted]
    prob[:, tail_col] = np.where(tail_count > 0, tail_share, 0.0)
    mult = np.ones((n, width))
    mult[:, tail_col] = tail_count

    ids = np.repeat(vocab[:, None], width, axis=1)
    ids[row, col] = listed
    ids[eos_unlisted, eos_col] = eos_id[eos_unlisted]
    # at most K + 1 ids are listed or EOS, so the smallest free one is below W
    taken = np.zeros((n, width), dtype=bool)
    low = listed < width
    taken[row[low], listed[low]] = True
    low = eos_id < width
    taken[rows[low], eos_id[low]] = True
    has_tail = tail_count > 0
    ids[has_tail, tail_col] = np.argmin(taken, axis=1)[has_tail]
    return PooledLayout(prob, mult, gold, eos, ids)


def read_log(lines: Iterable[str]) -> LogBatch:
    """Strictly parse a log into a checked LogBatch, raising on the first
    bad line; blank lines are skipped."""
    columns = _Columns()
    try:
        for line_number, line in enumerate(lines, start=1):
            if line.strip():
                columns.add(line, line_number)
    except ParseError:
        columns.batch().validate()  # a bad record on an earlier line comes first
        raise
    batch = columns.batch()
    batch.validate()
    return batch


def read_log_file(path) -> LogBatch:
    with open(path, "r", encoding="utf-8") as handle:
        return read_log(handle)


def write_log_file(path, records: Records) -> None:
    """Write a log as JSONL, the bytes ``json.dumps`` writes for each record,
    ``_ROWS_PER_CHUNK`` rows at a time; records become a batch a block at a time."""
    if isinstance(records, LogBatch):
        n = len(records)
        blocks = (records._text(lo, min(lo + _ROWS_PER_CHUNK, n)) for lo in range(0, n, _ROWS_PER_CHUNK))
    else:
        records = iter(records)
        batches = map(LogBatch.from_records, iter(lambda: list(islice(records, _ROWS_PER_CHUNK)), []))
        blocks = (batch._text(0, len(batch)) for batch in batches)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(blocks)
