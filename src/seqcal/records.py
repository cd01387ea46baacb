"""Prediction-log data model: token/sequence records, binning, histograms, JSONL IO.

A log file is UTF-8, line-delimited JSON, one token record per line. Each
record stores a sparse next-token distribution (explicit ``entries`` plus a
``rest_mass`` spread uniformly over the unlisted tokens), the gold token,
and optional attention-derived data. Records are immutable after parsing and
safe to share across threads. ``pooled_layout`` turns a batch of records into
the padded rows of slots that the metrics, fitting and apply all run on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError

PROB_ATOL = 1e-6

LOG_FIELDS = (
    "seq_id", "t", "vocab_size", "eos_id", "gold_id",
    "entries", "rest_mass", "attention", "cum_attention", "features",
)


@dataclass(frozen=True)
class StepFeatures:
    """Per-step calibration features: attention entropy (nats) and input coverage."""

    entropy: float
    coverage: float


@dataclass(frozen=True)
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

    def gold_prob(self) -> float:
        """Probability assigned to the gold token after densification."""
        for token_id, prob in self.entries:
            if token_id == self.gold_id:
                return prob
        return self.rest_share()

    def rest_share(self) -> float:
        """Per-token probability of each unlisted token; a ``rest_mass`` that
        validation let through slightly below 0 counts as 0."""
        unlisted = self.vocab_size - len(self.entries)
        if unlisted <= 0:
            return 0.0
        return max(self.rest_mass, 0.0) / unlisted

    def gold_in_entries(self) -> bool:
        return any(token_id == self.gold_id for token_id, _ in self.entries)


@dataclass(frozen=True)
class SequenceRecord:
    """An ordered run of token records belonging to one decoded sequence."""

    seq_id: str
    steps: tuple[TokenRecord, ...]
    source_len: int | None = None
    source: tuple[int, ...] | None = None
    reference: tuple[int, ...] | None = None


@dataclass(frozen=True)
class BinningConfig:
    """Equal-width confidence bins over [0, 1]."""

    num_bins: int = 20

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise ValidationError("num_bins", f"must be >= 1, got {self.num_bins}")

    def index(self, p: float) -> int:
        """Bin of ``p``: left-closed, right-open, last bin closed at 1."""
        return min(int(p * self.num_bins), self.num_bins - 1)

    def index_array(self, p: np.ndarray) -> np.ndarray:
        idx = (np.asarray(p, dtype=np.float64) * self.num_bins).astype(np.int64)
        return np.clip(idx, 0, self.num_bins - 1)

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

    def merge(self, other: "ReliabilityHistogram") -> "ReliabilityHistogram":
        if other.num_bins != self.num_bins:
            raise ValidationError("num_bins", "cannot merge histograms with different binning")
        return ReliabilityHistogram(
            num_bins=self.num_bins,
            weight=self.weight + other.weight,
            confidence_sum=self.confidence_sum + other.confidence_sum,
            accuracy_sum=self.accuracy_sum + other.accuracy_sum,
            count=self.count + other.count,
        )


def _require(condition: bool, fieldname: str, message: str, line_number: int | None, *args) -> None:
    """Raise ValidationError unless ``condition``; ``message`` is formatted
    with ``args`` only then, so a passing check builds no string."""
    if not condition:
        raise ValidationError(fieldname, message.format(*args) if args else message, line_number=line_number)


def check_tail_room(vocab_size: int, listed: int, rest_mass: float, line_number: int | None = None) -> None:
    """Reject ``rest_mass`` left over when every token of the vocabulary is listed."""
    if listed >= vocab_size and rest_mass > 0:
        raise ValidationError(
            "rest_mass", f"{rest_mass} left over with all {vocab_size} tokens listed", line_number=line_number,
        )


def validate_record(record: TokenRecord, line_number: int | None = None) -> TokenRecord:
    """Check every record invariant, raising ValidationError naming the field."""
    vocab = record.vocab_size
    _require(vocab >= 1, "vocab_size", "must be positive, got {}", line_number, vocab)
    _require(record.t >= 1, "t", "step index is 1-based, got {}", line_number, record.t)
    _require(0 <= record.eos_id < vocab, "eos_id", "out of range for V={}", line_number, vocab)
    _require(0 <= record.gold_id < vocab, "gold_id", "out of range for V={}", line_number, vocab)
    _require(len(record.entries) <= vocab, "entries", "more entries than vocabulary slots", line_number)

    seen: set[int] = set()
    total = 0.0
    for token_id, prob in record.entries:
        _require(0 <= token_id < vocab, "entries", "token id {} out of range", line_number, token_id)
        _require(token_id not in seen, "entries", "duplicate token id {}", line_number, token_id)
        seen.add(token_id)
        _require(0.0 <= prob <= 1.0 + PROB_ATOL, "entries", "probability {} outside [0, 1]", line_number, prob)
        total += prob
    _require(
        -PROB_ATOL <= record.rest_mass <= 1.0 + PROB_ATOL,
        "rest_mass", "{} outside [0, 1]", line_number, record.rest_mass,
    )
    _require(
        abs(total + record.rest_mass - 1.0) <= PROB_ATOL,
        "entries", "probabilities + rest_mass sum to {:.8f}, expected 1", line_number, total + record.rest_mass,
    )
    check_tail_room(vocab, len(record.entries), record.rest_mass, line_number)

    if record.attention is not None:
        _require(len(record.attention) > 0, "attention", "must be non-empty when present", line_number)
        _require(
            all(0 <= a < math.inf for a in record.attention),
            "attention", "weights must be finite and non-negative", line_number,
        )
        asum = math.fsum(record.attention)
        _require(abs(asum - 1.0) <= PROB_ATOL, "attention", "sums to {:.8f}, expected 1", line_number, asum)
    if record.cum_attention is not None:
        _require(
            all(0 <= c < math.inf for c in record.cum_attention),
            "cum_attention", "weights must be finite and non-negative", line_number,
        )
        if record.attention is not None:
            _require(
                len(record.cum_attention) == len(record.attention),
                "cum_attention", "length differs from attention", line_number,
            )
            _require(
                all(c >= a - PROB_ATOL for c, a in zip(record.cum_attention, record.attention)),
                "cum_attention", "element below the current attention weight", line_number,
            )
    if record.features is not None:
        _require(
            0.0 <= record.features.entropy < math.inf,
            "features", "entropy must be finite and non-negative", line_number,
        )
        _require(0.0 <= record.features.coverage <= 1.0, "features", "coverage outside [0, 1]", line_number)
    return record


def parse_log_line(line: str, line_number: int | None = None) -> TokenRecord:
    """Parse one JSONL log line into a validated TokenRecord."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line_number=line_number, offset=exc.pos) from exc
    if not isinstance(payload, dict):
        raise ParseError("record must be a JSON object", line_number=line_number)

    try:
        entries = tuple((int(i), float(p)) for i, p in payload["entries"])
        attention = payload.get("attention")
        cum_attention = payload.get("cum_attention")
        features = payload.get("features")
        record = TokenRecord(
            seq_id=str(payload["seq_id"]),
            t=int(payload["t"]),
            vocab_size=int(payload["vocab_size"]),
            eos_id=int(payload["eos_id"]),
            gold_id=int(payload["gold_id"]),
            entries=entries,
            rest_mass=float(payload.get("rest_mass", 0.0)),
            attention=None if attention is None else tuple(float(a) for a in attention),
            cum_attention=None if cum_attention is None else tuple(float(c) for c in cum_attention),
            features=None if features is None else StepFeatures(
                entropy=float(features["entropy"]), coverage=float(features["coverage"]),
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad record structure: {exc!r}", line_number=line_number) from exc
    return validate_record(record, line_number=line_number)


def serialize_record(record: TokenRecord) -> str:
    """Inverse of parse_log_line; parse(serialize(r)) equals r."""
    payload: dict = {
        "seq_id": record.seq_id,
        "t": record.t,
        "vocab_size": record.vocab_size,
        "eos_id": record.eos_id,
        "gold_id": record.gold_id,
        "entries": [[i, p] for i, p in record.entries],
        "rest_mass": record.rest_mass,
    }
    if record.attention is not None:
        payload["attention"] = list(record.attention)
    if record.cum_attention is not None:
        payload["cum_attention"] = list(record.cum_attention)
    if record.features is not None:
        payload["features"] = {"entropy": record.features.entropy, "coverage": record.features.coverage}
    return json.dumps(payload, separators=(",", ":"))


def densify(record: TokenRecord) -> np.ndarray:
    """Expand a sparse record into a dense probability vector of length V.

    Listed entries keep their probabilities; the remaining V-K tokens share
    rest_mass (0 if it is negative) uniformly. The result is renormalized so
    it sums to 1 within 1e-9 even when the stored values only sum to 1
    within the parse tolerance.
    """
    check_tail_room(record.vocab_size, len(record.entries), record.rest_mass)
    dense = np.full(record.vocab_size, record.rest_share(), dtype=np.float64)
    if record.entries:
        ids = np.fromiter((i for i, _ in record.entries), dtype=np.int64, count=len(record.entries))
        probs = np.fromiter((p for _, p in record.entries), dtype=np.float64, count=len(record.entries))
        dense[ids] = probs
    total = dense.sum()
    if total > 0:
        dense /= total
    return dense


@dataclass
class PooledLayout:
    """A batch of sparse distributions as padded rows of slots, O(N*K).

    Row i's listed entries fill columns 0..K_i-1 in input order. Column W-2
    holds EOS when it is unlisted; column W-1 pools the other unlisted
    tokens, which all share one probability, into one slot standing for
    ``mult`` tokens. Probabilities are divided by the same total ``densify``
    divides by. Slots with zero probability, padding included, are inactive.
    ``ids`` names each slot's token: the tail slot carries its smallest id,
    and a slot standing for no token carries V, so the smallest id among the
    most probable slots is the argmax of ``densify``.
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
    def logp(self) -> np.ndarray:
        """Log-probabilities, -inf where inactive, taken once per layout."""
        logp = np.full(self.prob.shape, -np.inf)
        np.log(self.prob, out=logp, where=self.active)
        return logp


def pooled_layout(records: Sequence[TokenRecord]) -> PooledLayout:
    """The pooled-tail layout of ``records``, the one place that normalizes
    a sparse record and pools its unlisted tail."""
    n = len(records)
    counts = np.fromiter((len(r.entries) for r in records), dtype=np.int64, count=n)
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(r.entries for r in records)),
        dtype=np.float64, count=2 * int(counts.sum()),
    )
    listed, probs = flat[0::2].astype(np.int64), flat[1::2]
    vocab = np.fromiter((r.vocab_size for r in records), dtype=np.int64, count=n)
    eos_id = np.fromiter((r.eos_id for r in records), dtype=np.int64, count=n)
    gold_id = np.fromiter((r.gold_id for r in records), dtype=np.int64, count=n)
    rest_mass = np.fromiter((r.rest_mass for r in records), dtype=np.float64, count=n)
    crowded = (counts == vocab) & (rest_mass > 0)
    if crowded.any():
        bad = records[int(np.argmax(crowded))]
        check_tail_room(bad.vocab_size, len(bad.entries), bad.rest_mass)

    width = (int(counts.max()) if n else 0) + 2
    eos_col, tail_col = width - 2, width - 1
    rows = np.arange(n)
    row = np.repeat(rows, counts)
    col = np.arange(len(listed)) - np.repeat(np.cumsum(counts) - counts, counts)

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


@dataclass
class DatasetSummary:
    """Lenient validation outcome: processed counts plus per-error tallies."""

    count: int = 0
    parse_errors: int = 0
    validation_errors: int = 0
    gold_in_tail: int = 0
    error_fields: dict[str, int] = field(default_factory=dict)
    first_errors: list[str] = field(default_factory=list)

    def _note(self, message: str, max_kept: int = 10) -> None:
        if len(self.first_errors) < max_kept:
            self.first_errors.append(message)


def validate_dataset(lines: Iterable[str]) -> DatasetSummary:
    """Tally a whole log without aborting: bad lines are counted and skipped."""
    summary = DatasetSummary()
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_log_line(line, line_number=line_number)
        except ParseError as exc:
            summary.parse_errors += 1
            summary.error_fields["<parse>"] = summary.error_fields.get("<parse>", 0) + 1
            summary._note(str(exc))
            continue
        except ValidationError as exc:
            summary.validation_errors += 1
            summary.error_fields[exc.field] = summary.error_fields.get(exc.field, 0) + 1
            summary._note(str(exc))
            continue
        summary.count += 1
        if not record.gold_in_entries():
            summary.gold_in_tail += 1
    return summary


def read_log(lines: Iterable[str]) -> Iterator[TokenRecord]:
    """Strictly parse a log, raising on the first bad line."""
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        yield parse_log_line(line, line_number=line_number)


def read_log_file(path) -> list[TokenRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return list(read_log(handle))


def write_log_file(path, records: Iterable[TokenRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(serialize_record(record) + "\n")


def group_into_sequences(records: Iterable[TokenRecord]) -> list[SequenceRecord]:
    """Group consecutive records with equal seq_id into SequenceRecords.

    Steps must arrive ordered t = 1..n with no gaps. The source length is
    inferred from the first step carrying an attention vector.
    """
    sequences: list[SequenceRecord] = []
    current: list[TokenRecord] = []

    def flush() -> None:
        if not current:
            return
        for expected_t, step in enumerate(current, start=1):
            if step.t != expected_t:
                raise ValidationError(
                    "t", f"sequence {current[0].seq_id!r} has step {step.t} where {expected_t} was expected",
                )
        source_len = None
        for step in current:
            vec = step.attention if step.attention is not None else step.cum_attention
            if vec is not None:
                source_len = len(vec)
                break
        sequences.append(SequenceRecord(seq_id=current[0].seq_id, steps=tuple(current), source_len=source_len))
        current.clear()

    for record in records:
        if current and record.seq_id != current[0].seq_id:
            flush()
        current.append(record)
    flush()
    return sequences

