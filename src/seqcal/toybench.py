"""Synthetic translation bench with exactly known conditionals.

Each source token emits a target token from a fixed per-token distribution,
one source position per output step, with EOS deterministic after the last
position. Attention interpolates between one-hot alignment and uniform, so
entropy and coverage have closed-form ground truth. Known miscalibration is
injected in logit space (global temperature and a coverage-gated EOS bias),
which makes single-temperature recovery exact in the infinite-data limit.

Per-sequence RNG streams are derived as (seed, stream, index) so results do
not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ModelError, SeqcalError, ValidationError
from .features import coverage, enrich_batch, masked_row_sums
from .jsonfile import field, is_number, read_json, write_json
from .records import (
    BinningConfig,
    LogBatch,
    ReliabilityHistogram,
    SequenceRecord,
    offsets_of,
    running_sums,
    sums_to_one,
)
from .sequence import (
    BeamConfig,
    Hypothesis,
    RescoringModel,
    ScoringModel,
    Tokens,
    beam_search,
    bleu_or_degenerate,
    corpus_bleu,
    expected_bleu,
    strip_eos,
    structured_ece,
)

_STREAM_LOGS = 0
_STREAM_EVAL = 1
_STREAM_SAMPLES = 2


class _JsonSpec:
    """Saving to and loading from a JSON spec file through ``to_payload``
    and ``from_payload``."""

    def save(self, path) -> None:
        write_json(path, self.to_payload())

    @classmethod
    def load(cls, path):
        return read_json(path, cls.from_payload)


@dataclass(frozen=True)
class ToyTaskSpec(_JsonSpec):
    """Task definition: emission table, length range, attention peakedness."""

    source_vocab_size: int
    target_vocab_size: int  # includes EOS
    eos_id: int
    min_len: int
    max_len: int
    gamma: float  # 0 = one-hot alignment, 1 = uniform attention
    seed: int
    emissions: tuple[tuple[float, ...], ...]  # one distribution over targets per source token

    def __post_init__(self) -> None:
        if self.source_vocab_size < 1 or self.target_vocab_size < 2:
            raise ValidationError("vocab", "need at least one source token and two target tokens")
        if not 0 <= self.eos_id < self.target_vocab_size:
            raise ValidationError("eos_id", "out of target vocabulary range")
        if not 1 <= self.min_len <= self.max_len:
            raise ValidationError("length", f"bad length range [{self.min_len}, {self.max_len}]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma", "attention peakedness must be in [0, 1]")
        if len(self.emissions) != self.source_vocab_size:
            raise ValidationError("emissions", "one emission row per source token required")
        for s, row in enumerate(self.emissions):
            if len(row) != self.target_vocab_size:
                raise ValidationError("emissions", f"row {s} has wrong width")
            if not (min(row) >= 0 and sums_to_one(running_sums(np.asarray(row, dtype=np.float64)))):
                raise ValidationError("emissions", f"row {s} is not a distribution")  # as a log line would be

    @classmethod
    def two_way_default(
        cls,
        source_vocab_size: int = 20,
        target_vocab_size: int = 21,
        min_len: int = 4,
        max_len: int = 8,
        gamma: float = 0.3,
        seed: int = 0,
        split: tuple[float, float] = (0.7, 0.3),
        eos_floor: float = 0.0,
    ) -> "ToyTaskSpec":
        """Default bench: each source token is ambiguous between two targets.

        ``eos_floor`` mixes that fraction of each row onto EOS, giving the
        interior steps nonzero EOS mass so EOS-bias distortions have a logit
        to act on (with zero mass, no finite logit shift can resurrect EOS).
        """
        eos_id = target_vocab_size - 1
        plain = target_vocab_size - 1
        rows = []
        for s in range(source_vocab_size):
            row = [0.0] * target_vocab_size
            row[s % plain] += split[0] * (1.0 - eos_floor)
            row[(s + 1) % plain] += split[1] * (1.0 - eos_floor)
            row[eos_id] += eos_floor
            rows.append(tuple(row))
        return cls(
            source_vocab_size=source_vocab_size,
            target_vocab_size=target_vocab_size,
            eos_id=eos_id,
            min_len=min_len,
            max_len=max_len,
            gamma=gamma,
            seed=seed,
            emissions=tuple(rows),
        )

    def to_payload(self) -> dict:
        return {
            "source_vocab_size": self.source_vocab_size,
            "target_vocab_size": self.target_vocab_size,
            "eos_id": self.eos_id,
            "min_len": self.min_len,
            "max_len": self.max_len,
            "gamma": self.gamma,
            "seed": self.seed,
            "emissions": [list(row) for row in self.emissions],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ToyTaskSpec":
        """The spec of a decoded task file; a missing or mistyped field
        raises SeqcalError naming it."""
        ints = {name: field(payload, name, int) for name in (
            "source_vocab_size", "target_vocab_size", "eos_id", "min_len", "max_len", "seed",
        )}
        rows = payload.get("emissions")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(is_number(p) for p in row) for row in rows
        ):
            raise SeqcalError(f"field 'emissions' must be a list of rows of finite numbers, got {rows!r}")
        return cls(
            **ints,
            gamma=field(payload, "gamma", float),
            emissions=tuple(tuple(float(p) for p in row) for row in rows),
        )


@dataclass(frozen=True)
class DistortionSpec(_JsonSpec):
    """Known miscalibration: sharpen/flatten by ``temperature`` (< 1 sharpens,
    making the model overconfident) and add ``eos_bias * (1 - coverage)`` to
    the EOS logit."""

    temperature: float = 1.0
    eos_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValidationError("temperature", "must be positive")
        if self.eos_bias < 0:
            raise ValidationError("eos_bias", "must be non-negative")

    def to_payload(self) -> dict:
        return {"temperature": self.temperature, "eos_bias": self.eos_bias}

    @classmethod
    def from_payload(cls, payload: dict) -> "DistortionSpec":
        """The spec of a decoded distortion; a missing field keeps its
        default, and a mistyped one raises SeqcalError naming it."""
        return cls(
            temperature=field(payload, "temperature", float, 1.0),
            eos_bias=field(payload, "eos_bias", float, 0.0),
        )


class ToyModel(ScoringModel):
    """Exact scoring model for a task: emission-row lookups, monotone alignment."""

    def __init__(self, spec: ToyTaskSpec):
        self.spec = spec
        eos_row = np.zeros((1, spec.target_vocab_size))
        eos_row[0, spec.eos_id] = 1.0
        # the emission rows, then the certain EOS that follows the last source token
        self._rows = np.concatenate((np.asarray(spec.emissions, dtype=np.float64), eos_row))
        self._profiles: dict[int, np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return self.spec.target_vocab_size

    @property
    def eos_id(self) -> int:
        return self.spec.eos_id

    def start(self, source):
        return tuple(source)

    def step(self, state, prefix: Tokens):
        t, k = len(prefix), len(state)
        probs, alpha = self._lookup(state[t] if t < k else -1, min(t, k - 1), k)
        return probs, alpha, state

    def step_batch(self, states, prefixes):
        """Each row's emission row and attention, looked up as ``step``
        looks them up."""
        k = len(states[0])
        position = [len(prefix) for prefix in prefixes]
        token = [source[t] if t < k else -1 for source, t in zip(states, position)]
        probs, alpha = self._lookup(token, [min(t, k - 1) for t in position], k)
        return probs, alpha, list(states)

    def _lookup(self, token, aligned, k: int):
        """The emission row of source token ``token`` (-1: the certain EOS
        past the last source token) and the attention over k source
        positions aligned to position ``aligned``: one row each for ints,
        a row per entry for lists. Every step reads these two tables, so
        ``step`` and ``step_batch`` agree bit for bit."""
        return self._rows.take(token, axis=0), self._profile(k).take(aligned, axis=0)

    def _profile(self, k: int) -> np.ndarray:
        """Row j: the attention over k source positions aligned to position j,
        between one-hot alignment (gamma 0) and uniform attention (gamma 1)."""
        if k not in self._profiles:
            gamma = self.spec.gamma
            # (1 - gamma) * one_hot + gamma * uniform, with the same roundings
            profile = np.full((k, k), gamma * (1.0 / k))
            profile[np.arange(k), np.arange(k)] += 1.0 - gamma
            self._profiles[k] = profile
        return self._profiles[k]


class DistortedModel(RescoringModel):
    """Wrap a model with softmax(ln p / temperature + eos_bias * (1 - coverage) on EOS)."""

    def __init__(self, inner: ScoringModel, distortion: DistortionSpec):
        super().__init__(inner)
        self.distortion = distortion

    def rescore(self, probs, alpha, cum):
        """The softmax over each row's active (nonzero) tokens, for the rows
        of 2-D arrays or for the one row of 1-D arrays. Each row's sum is
        the one its own ``np.sum`` takes, so a row's result does not depend
        on the rows beside it."""
        active = probs > 0
        z = np.full(probs.shape, -np.inf)
        z[active] = np.log(probs[active]) / self.distortion.temperature
        if self.distortion.eos_bias > 0:  # an inactive EOS stays at -inf
            # z.T[eos]: the EOS logit of one row, or the EOS column of a batch
            z.T[self.eos_id] += self.distortion.eos_bias * (1.0 - coverage(cum))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / masked_row_sums(e, active)


def build_true_model(spec: ToyTaskSpec) -> ToyModel:
    return ToyModel(spec)


def distort(model: ScoringModel, distortion: DistortionSpec) -> ScoringModel:
    """Identity when temperature == 1 and eos_bias == 0 (bitwise within 1e-12)."""
    return DistortedModel(model, distortion)


def _draw_pair(model: ToyModel, rng: np.random.Generator) -> tuple[Tokens, Tokens]:
    """Draw one (source, gold target) pair from the true task distribution.

    ``rng`` draws the length k and the source, then k + 1 uniforms at once,
    one per step. Each step's token is the one ``Generator.choice`` would
    pick with that uniform from the step's emission row (EOS after the last
    source token): the first index whose normalised cdf exceeds it. The
    true model ignores the prefix, so the pair equals ancestral sampling
    with ``sample_sequence``; the reference ends at its first EOS.
    """
    task = model.spec
    k = int(rng.integers(task.min_len, task.max_len + 1))
    source = rng.integers(0, task.source_vocab_size, k)
    rows = model._rows[np.append(source, len(model._rows) - 1)]  # each step's row, the last one EOS
    cdf = (rows / rows.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # searchsorted(cdf, u, side="right") of each row: the count of cdf values <= u
    tokens = np.count_nonzero(cdf <= rng.random(k + 1)[:, None], axis=1)
    end = int(np.argmax(tokens == task.eos_id)) + 1
    return tuple(source.tolist()), tuple(tokens[:end].tolist())


def _pairs(task: ToyTaskSpec, n: int, seed: int, stream: int) -> list[tuple[Tokens, Tokens]]:
    """Pair i of the (seed, stream) series, drawn from its own generator."""
    if n < 0:
        raise SeqcalError(f"the number of sequences must be non-negative, got {n}")
    model = ToyModel(task)
    return [_draw_pair(model, np.random.default_rng((seed, stream, i))) for i in range(n)]


def _teacher_force(model: ScoringModel, pairs: Sequence[tuple[Tokens, Tokens]]) -> LogBatch:
    """The checked, enriched log of ``model`` teacher-forced on ``pairs``:
    one model call per step position for the sequences of one source
    length, longest reference first, so the sequences still running at a
    step are a prefix of the bucket."""
    src_len = np.array([len(source) for source, _ in pairs], dtype=np.int64)
    ref_len = np.array([len(reference) for _, reference in pairs], dtype=np.int64)
    starts = offsets_of(ref_len)
    n = int(starts[-1])
    width = np.repeat(src_len, ref_len)
    att_offsets = offsets_of(width)
    # each step's (row, token, prob) entries; an empty array first, so that a log of no rows concatenates
    rows_of, ids_of, probs_of = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    attention = np.zeros(int(att_offsets[-1]))
    order = np.lexsort((-ref_len, src_len))
    for bucket in np.split(order, np.flatnonzero(np.diff(src_len[order])) + 1) if len(order) else ():
        states = [model.start(pairs[i][0]) for i in bucket]
        references = [pairs[i][1] for i in bucket]
        for t in range(int(ref_len[bucket[0]])):
            live = int(np.count_nonzero(ref_len[bucket] > t))
            rows = starts[bucket[:live]] + t
            step_probs, alpha, states = model.step_batch(states[:live], [r[:t] for r in references[:live]])
            step_probs, alpha = np.asarray(step_probs, dtype=np.float64), np.asarray(alpha, dtype=np.float64)
            if step_probs.shape != (live, model.vocab_size) or alpha.shape != (live, src_len[bucket[0]]):
                raise ModelError(
                    f"model emitted {step_probs.shape} probabilities and {alpha.shape} attention "
                    f"for {live} rows, V={model.vocab_size} and {src_len[bucket[0]]} source positions"
                )
            # the nonzero entries (NaN among them), rows ascending and each row's tokens ascending
            row, token = np.nonzero(step_probs)
            rows_of.append(rows[row])
            ids_of.append(token)
            probs_of.append(step_probs[row, token])
            attention[att_offsets[rows, None] + np.arange(alpha.shape[1])] = alpha
    entry_row = np.concatenate(rows_of)
    order = np.argsort(entry_row, kind="stable")  # file order; a row's entries all come from one step
    batch = LogBatch(
        seq_ids=[f"toy-{i:06d}" for i in range(len(pairs))],
        seq_starts=starts,
        t=np.arange(n) - np.repeat(starts[:-1], ref_len) + 1,
        vocab_size=np.full(n, model.vocab_size, dtype=np.int64),
        eos_id=np.full(n, model.eos_id, dtype=np.int64),
        gold_id=np.fromiter(chain.from_iterable(reference for _, reference in pairs), dtype=np.int64, count=n),
        offsets=offsets_of(np.bincount(entry_row, minlength=n)),
        ids=np.concatenate(ids_of)[order],
        probs=np.concatenate(probs_of)[order],
        rest_mass=np.zeros(n),
        has_attention=np.ones(n, dtype=bool), att_offsets=att_offsets, attention=attention,
        has_cum=np.zeros(n, dtype=bool), cum_offsets=np.zeros(n + 1, dtype=np.int64), cum_attention=np.zeros(0),
        has_features=np.zeros(n, dtype=bool), entropy=np.full(n, np.nan), coverage=np.full(n, np.nan),
    )
    for row, error in batch.errors():  # the first row that breaks a record invariant
        raise ModelError(f"{batch.where(row)}: {error}")
    return enrich_batch(batch)


def emit_log_batch(model: ScoringModel, task: ToyTaskSpec, n_sequences: int, seed: int) -> LogBatch:
    """Teacher-forced logs as one checked batch: gold pairs drawn from the
    true task, pair i from generator (seed, 0, i), and step distributions
    recorded from ``model`` conditioned on the gold prefix. Sequences are
    teacher-forced a source length at a time, one ``step_batch`` call per
    step position. Each row stores its attention, cumulative attention and
    features; a row that breaks a record invariant raises ModelError
    naming its sequence, step and field."""
    return _teacher_force(model, _pairs(task, n_sequences, seed, _STREAM_LOGS))


def emit_logs(
    model: ScoringModel,
    task: ToyTaskSpec,
    n_sequences: int,
    seed: int,
) -> list[SequenceRecord]:
    """``emit_log_batch`` as one SequenceRecord per sequence, carrying its
    source and reference."""
    pairs = _pairs(task, n_sequences, seed, _STREAM_LOGS)
    batch = _teacher_force(model, pairs)
    steps, bounds = list(batch), batch.seq_starts.tolist()
    return [
        SequenceRecord(seq_id, tuple(steps[lo:hi]), source=source, reference=reference)
        for seq_id, lo, hi, (source, reference) in zip(batch.seq_ids, bounds, bounds[1:], pairs)
    ]


def flatten(sequences: Sequence[SequenceRecord]) -> LogBatch:
    """The steps of ``sequences``, in order, as one batch."""
    return LogBatch.from_records(chain.from_iterable(seq.steps for seq in sequences))


def _top_hypothesis(model: ScoringModel, source: Tokens, width: int) -> Hypothesis:
    """Best beam-search hypothesis of ``width`` beams, long enough for the
    source plus EOS."""
    cfg = BeamConfig(beam_width=width, max_len=max(BeamConfig().max_len, len(source) + 1))
    return beam_search(model, source, cfg)[0]


def beam_sweep(
    model: ScoringModel,
    task: ToyTaskSpec,
    beams: Sequence[int],
    n_eval: int,
    seed: int | None = None,
) -> list[dict]:
    """Corpus BLEU and mean top log-score per beam width on held-out sources."""
    if not beams:
        raise SeqcalError("beam sweep needs at least one beam width")
    pairs = _pairs(task, n_eval, task.seed if seed is None else seed, _STREAM_EVAL)
    rows: list[dict] = []
    for width in beams:
        scored: list[tuple[Tokens, Tokens]] = []
        log_scores: list[float] = []
        for source, reference in pairs:
            top = _top_hypothesis(model, source, width)
            scored.append((strip_eos(top.tokens, model.eos_id), strip_eos(reference, model.eos_id)))
            log_scores.append(top.score)
        rows.append(
            {
                "beam_width": int(width),
                "corpus_bleu": corpus_bleu(scored),
                "mean_log_score": math.fsum(log_scores) / len(log_scores),
            }
        )
    return rows


@dataclass
class SequenceCalibrationResult:
    score: float
    histogram: ReliabilityHistogram
    rows: list[dict]


def sequence_calibration_experiment(
    model: ScoringModel,
    task: ToyTaskSpec,
    n_eval: int,
    num_samples: int = 100,
    bins: BinningConfig = BinningConfig(),
    seed: int | None = None,
) -> SequenceCalibrationResult:
    """Expected-vs-actual BLEU calibration of beam-search predictions."""
    seed = task.seed if seed is None else seed
    pairs = _pairs(task, n_eval, seed, _STREAM_EVAL)
    rows: list[dict] = []
    for i, (source, reference) in enumerate(pairs):
        prediction = _top_hypothesis(model, source, BeamConfig().beam_width).tokens
        rng = np.random.default_rng((seed, _STREAM_SAMPLES, i))
        expected = expected_bleu(
            model, source, prediction, rng, num_samples=num_samples, max_len=len(source) + 1
        )
        actual = bleu_or_degenerate(
            strip_eos(prediction, model.eos_id), strip_eos(reference, model.eos_id)
        )
        rows.append({"seq_id": f"eval-{i:06d}", "expected_bleu": expected, "actual_bleu": actual})
    score, hist = structured_ece([(r["expected_bleu"], r["actual_bleu"]) for r in rows], bins)
    return SequenceCalibrationResult(score=score, histogram=hist, rows=rows)
