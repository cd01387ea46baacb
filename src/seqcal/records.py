"""Prediction-log data model: token/sequence records, binning, histograms, JSONL IO.

A log file is UTF-8, line-delimited JSON, one token record per line. Each
record stores a sparse next-token distribution (explicit ``entries`` plus a
``rest_mass`` spread uniformly over the unlisted tokens), the gold token,
and optional attention-derived data. Records are immutable after parsing and
safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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
        """Per-token probability of each unlisted token."""
        unlisted = self.vocab_size - len(self.entries)
        if unlisted <= 0:
            return 0.0
        return self.rest_mass / unlisted

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


def _require(condition: bool, fieldname: str, message: str, line_number: int | None) -> None:
    if not condition:
        raise ValidationError(fieldname, message, line_number=line_number)


def check_tail_room(vocab_size: int, listed: int, rest_mass: float, line_number: int | None = None) -> None:
    """Reject ``rest_mass`` left over when every token of the vocabulary is listed."""
    if listed >= vocab_size and rest_mass > 0:
        raise ValidationError(
            "rest_mass", f"{rest_mass} left over with all {vocab_size} tokens listed", line_number=line_number,
        )


def validate_record(record: TokenRecord, line_number: int | None = None) -> TokenRecord:
    """Check every record invariant, raising ValidationError naming the field."""
    _require(record.vocab_size >= 1, "vocab_size", f"must be positive, got {record.vocab_size}", line_number)
    _require(record.t >= 1, "t", f"step index is 1-based, got {record.t}", line_number)
    _require(0 <= record.eos_id < record.vocab_size, "eos_id", f"out of range for V={record.vocab_size}", line_number)
    _require(0 <= record.gold_id < record.vocab_size, "gold_id", f"out of range for V={record.vocab_size}", line_number)
    _require(len(record.entries) <= record.vocab_size, "entries", "more entries than vocabulary slots", line_number)

    seen: set[int] = set()
    total = 0.0
    for token_id, prob in record.entries:
        _require(0 <= token_id < record.vocab_size, "entries", f"token id {token_id} out of range", line_number)
        _require(token_id not in seen, "entries", f"duplicate token id {token_id}", line_number)
        seen.add(token_id)
        _require(0.0 <= prob <= 1.0 + PROB_ATOL, "entries", f"probability {prob} outside [0, 1]", line_number)
        total += prob
    _require(
        -PROB_ATOL <= record.rest_mass <= 1.0 + PROB_ATOL,
        "rest_mass", f"{record.rest_mass} outside [0, 1]", line_number,
    )
    _require(
        abs(total + record.rest_mass - 1.0) <= PROB_ATOL,
        "entries", f"probabilities + rest_mass sum to {total + record.rest_mass:.8f}, expected 1", line_number,
    )
    check_tail_room(record.vocab_size, len(record.entries), record.rest_mass, line_number)

    if record.attention is not None:
        _require(len(record.attention) > 0, "attention", "must be non-empty when present", line_number)
        _require(
            all(0 <= a < math.inf for a in record.attention),
            "attention", "weights must be finite and non-negative", line_number,
        )
        asum = math.fsum(record.attention)
        _require(abs(asum - 1.0) <= PROB_ATOL, "attention", f"sums to {asum:.8f}, expected 1", line_number)
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
    rest_mass uniformly. The result is renormalized so it sums to 1 within
    1e-9 even when the stored values only sum to 1 within the parse
    tolerance.
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

