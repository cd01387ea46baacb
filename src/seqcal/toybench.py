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
from typing import Sequence

import numpy as np

from .errors import SeqcalError, ValidationError
from .features import COVERAGE_THRESHOLD, attention_entropy, attention_profile, coverage
from .jsonfile import field, is_number, read_json, write_json
from .records import (
    BinningConfig,
    PROB_ATOL,
    ReliabilityHistogram,
    SequenceRecord,
    StepFeatures,
    TokenRecord,
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
    sample_sequence,
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
            if any(p < 0 for p in row) or abs(math.fsum(row) - 1.0) > PROB_ATOL:
                raise ValidationError("emissions", f"row {s} is not a distribution")

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
        self._emissions = np.asarray(spec.emissions, dtype=np.float64)

    @property
    def vocab_size(self) -> int:
        return self.spec.target_vocab_size

    @property
    def eos_id(self) -> int:
        return self.spec.eos_id

    def start(self, source):
        return tuple(source)

    def step(self, state, prefix: Tokens):
        source = state
        k = len(source)
        t = len(prefix) + 1
        if t <= k:
            probs = self._emissions[source[t - 1]].copy()
        else:
            probs = np.zeros(self.vocab_size)
            probs[self.eos_id] = 1.0
        alpha = attention_profile(self.spec.gamma, min(t, k) - 1, k)
        return probs, alpha, state


class DistortedModel(RescoringModel):
    """Wrap a model with softmax(ln p / temperature + eos_bias * (1 - coverage) on EOS)."""

    def __init__(self, inner: ScoringModel, distortion: DistortionSpec):
        super().__init__(inner)
        self.distortion = distortion

    def rescore(self, probs, alpha, cum):
        active = probs > 0
        z = np.full(probs.shape, -np.inf)
        z[active] = np.log(probs[active]) / self.distortion.temperature
        if self.distortion.eos_bias > 0 and active[self.eos_id]:
            c_t = coverage(cum, COVERAGE_THRESHOLD)
            z[self.eos_id] += self.distortion.eos_bias * (1.0 - c_t)
        out = np.zeros(probs.shape)
        zs = z[active]
        m = zs.max()
        e = np.exp(zs - m)
        out[active] = e / e.sum()
        return out


def build_true_model(spec: ToyTaskSpec) -> ToyModel:
    return ToyModel(spec)


def distort(model: ScoringModel, distortion: DistortionSpec) -> ScoringModel:
    """Identity when temperature == 1 and eos_bias == 0 (bitwise within 1e-12)."""
    return DistortedModel(model, distortion)


def sample_pair(task: ToyTaskSpec, rng: np.random.Generator) -> tuple[Tokens, Tokens]:
    """Draw one (source, gold target) pair from the true task distribution."""
    k = int(rng.integers(task.min_len, task.max_len + 1))
    source = tuple(int(s) for s in rng.integers(0, task.source_vocab_size, k))
    reference = sample_sequence(ToyModel(task), source, rng, max_len=k + 1)
    return source, reference


def emit_logs(
    model: ScoringModel,
    task: ToyTaskSpec,
    n_sequences: int,
    seed: int,
) -> list[SequenceRecord]:
    """Teacher-forced logs: gold pairs drawn from the true task, step
    distributions recorded from ``model`` conditioned on the gold prefix."""
    sequences: list[SequenceRecord] = []
    for i in range(n_sequences):
        rng = np.random.default_rng((seed, _STREAM_LOGS, i))
        source, reference = sample_pair(task, rng)
        seq_id = f"toy-{i:06d}"
        state = model.start(source)
        cum: np.ndarray | None = None
        steps: list[TokenRecord] = []
        for t, gold in enumerate(reference, start=1):
            probs, alpha, state = model.step(state, reference[: t - 1])
            probs = np.asarray(probs, dtype=np.float64)
            alpha = np.asarray(alpha, dtype=np.float64)
            cum = alpha.copy() if cum is None else cum + alpha
            nonzero = np.flatnonzero(probs)
            steps.append(
                TokenRecord(
                    seq_id=seq_id,
                    t=t,
                    vocab_size=model.vocab_size,
                    eos_id=model.eos_id,
                    gold_id=int(gold),
                    entries=tuple(zip(nonzero.tolist(), probs[nonzero].tolist())),
                    rest_mass=0.0,
                    attention=tuple(alpha.tolist()),
                    cum_attention=tuple(cum.tolist()),
                    features=StepFeatures(attention_entropy(alpha), coverage(cum, COVERAGE_THRESHOLD)),
                )
            )
        sequences.append(
            SequenceRecord(
                seq_id=seq_id,
                steps=tuple(steps),
                source_len=len(source),
                source=source,
                reference=reference,
            )
        )
    return sequences


def flatten(sequences: Sequence[SequenceRecord]) -> list[TokenRecord]:
    return [step for seq in sequences for step in seq.steps]


def _eval_pairs(task: ToyTaskSpec, n_eval: int, seed: int) -> list[tuple[Tokens, Tokens]]:
    return [
        sample_pair(task, np.random.default_rng((seed, _STREAM_EVAL, i)))
        for i in range(n_eval)
    ]


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
    pairs = _eval_pairs(task, n_eval, task.seed if seed is None else seed)
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
    pairs = _eval_pairs(task, n_eval, seed)
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
