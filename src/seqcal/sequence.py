"""Decoding and sequence-level calibration over an abstract scoring model.

The scoring model is an opaque autoregressive interface: given a source and
a prefix it yields a next-token distribution and an attention vector. Beam
search, ancestral sampling, BLEU, expected BLEU, and the expected-vs-actual
BLEU calibration gap all operate on that interface alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .errors import MetricError, ModelError
from .metrics import _finalize
from .records import BinningConfig, ReliabilityHistogram, running_sums, sums_to_one

Tokens = tuple[int, ...]


class ScoringModel(ABC):
    """Deterministic next-token scorer: distribution + attention given (source, prefix)."""

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @property
    @abstractmethod
    def eos_id(self) -> int: ...

    @abstractmethod
    def start(self, source):
        """Fresh decoder state for a source."""

    @abstractmethod
    def step(self, state, prefix: Tokens):
        """Return (probabilities over V, attention over source positions, next state)."""

    def step_batch(self, states: Sequence, prefixes: Sequence[Tokens]):
        """``step`` for B rows whose sources all have length S: (B, V)
        probabilities, (B, S) attention and the B next states. This default
        calls ``step`` row by row; a model that overrides it computes the
        rows as whole arrays, each equal bit for bit to its ``step``."""
        probs, alpha, next_states = zip(*map(self.step, states, prefixes))
        return np.array(probs, dtype=np.float64), np.array(alpha, dtype=np.float64), list(next_states)


class RescoringModel(ScoringModel):
    """Wraps a model and rewrites its step distributions with ``rescore``,
    given each step's attention and the cumulative attention up to and
    including it, as the log pipeline derives it: one row from ``step``, a
    batch of rows from ``step_batch``."""

    def __init__(self, inner: ScoringModel):
        self.inner = inner

    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    @property
    def eos_id(self) -> int:
        return self.inner.eos_id

    def start(self, source):
        return (self.inner.start(source), None)

    def step(self, state, prefix: Tokens):
        inner_state, cum = state
        probs, alpha, next_inner = self.inner.step(inner_state, prefix)
        alpha = np.asarray(alpha, dtype=np.float64)
        cum = alpha.copy() if cum is None else cum + alpha
        return self.rescore(np.asarray(probs, dtype=np.float64), alpha, cum), alpha, (next_inner, cum)

    def step_batch(self, states: Sequence, prefixes: Sequence[Tokens]):
        inner_states, cums = zip(*states)
        probs, alpha, next_inner = self.inner.step_batch(inner_states, prefixes)
        alpha = np.asarray(alpha, dtype=np.float64)
        cum = alpha.copy()
        started = [i for i, c in enumerate(cums) if c is not None]
        if started:  # this step's attention plus the sum so far, the two terms ``step`` adds
            cum[started] += np.array([cums[i] for i in started])
        return self.rescore(np.asarray(probs, dtype=np.float64), alpha, cum), alpha, list(zip(next_inner, cum))

    @abstractmethod
    def rescore(self, probs: np.ndarray, alpha: np.ndarray, cum: np.ndarray) -> np.ndarray:
        """The new distributions over V: one row for 1-D probabilities,
        attention and cumulative attention, or the rows of (B, V), (B, S)
        and (B, S) arrays. Each row must equal the row rescored alone."""


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = 4
    max_len: int = 64
    length_normalize: bool = False

    def __post_init__(self) -> None:
        if self.beam_width < 1 or self.max_len < 1:
            raise ModelError("beam width and max length must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """A finished or truncated decode: tokens end with EOS or at max_len."""

    tokens: Tokens
    log_prob: float
    score: float

    @property
    def prob(self) -> float:
        return math.exp(self.log_prob)


def _checked(model: ScoringModel, probs, rows: int | None = None) -> np.ndarray:
    """``probs`` as float64, checked to be one distribution over V (``rows``
    None) or ``rows`` of them, as ``step`` and ``step_batch`` return them."""
    probs = np.asarray(probs, dtype=np.float64)
    shape = (model.vocab_size,) if rows is None else (rows, model.vocab_size)
    if probs.shape != shape:
        raise ModelError(f"model emitted {probs.shape} probabilities, expected {shape}")
    sums = running_sums(probs)
    ok = sums_to_one(sums)  # one np.bool_ for one row, whose .all() would cost a reduction
    if not (probs.min() >= 0 and (ok if rows is None else ok.all())):  # NaN fails both
        table, sums = probs.reshape(-1, model.vocab_size), np.ravel(sums)
        i = int(np.argmin((table >= 0).all(axis=1) & sums_to_one(sums)))
        problem = "a non-finite" if not np.isfinite(table[i]).all() else "an invalid"
        raise ModelError(f"model emitted {problem} distribution (sum={sums[i]:.8f})")
    return probs


def beam_search(model: ScoringModel, source, cfg: BeamConfig) -> list[Hypothesis]:
    """Standard beam search, best hypothesis first.

    Each step scores all live prefixes with one ``step_batch`` call. Live
    prefixes each expand with their top-B tokens; the global top-B
    live candidates survive by cumulative log-probability. A prefix that
    emits EOS retires to a finished pool without consuming a beam slot.
    Ties break toward the lexicographically smaller token sequence.
    """
    live: list[tuple[float, Tokens, object]] = [(0.0, (), model.start(source))]
    finished: list[tuple[float, Tokens]] = []
    for _ in range(cfg.max_len):
        if not live:
            break
        log_probs, prefixes, states = zip(*live)
        probs, _, next_states = model.step_batch(states, prefixes)
        probs = _checked(model, probs, len(live))
        orders = np.argsort(-probs, axis=1, kind="stable")[:, : cfg.beam_width]
        candidates: list[tuple[float, Tokens, object]] = []
        for log_prob, prefix, next_state, row, order in zip(log_probs, prefixes, next_states, probs, orders):
            for token in order:
                p = row[token]
                if p <= 0.0:
                    continue
                extended = (log_prob + math.log(p), prefix + (int(token),), next_state)
                if token == model.eos_id:
                    finished.append(extended[:2])
                else:
                    candidates.append(extended)
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = candidates[: cfg.beam_width]
    finished.extend((log_prob, prefix) for log_prob, prefix, _ in live)

    def final_score(log_prob: float, tokens: Tokens) -> float:
        if cfg.length_normalize and tokens:
            return log_prob / len(tokens)
        return log_prob

    hypotheses = [
        Hypothesis(tokens=tokens, log_prob=log_prob, score=final_score(log_prob, tokens))
        for log_prob, tokens in finished
    ]
    hypotheses.sort(key=lambda h: (-h.score, h.tokens))
    return hypotheses


class Uniforms(Protocol):
    """Any source of uniform doubles in [0, 1), such as ``rng.Stream`` or a ``numpy.random.Generator``."""

    def random(self) -> float: ...


def sample_sequence(model: ScoringModel, source, rng: Uniforms, max_len: int) -> Tokens:
    """Ancestral sampling until EOS or max_len; includes the EOS token when emitted.

    Each token takes one ``rng.random()`` and is picked as numpy's
    ``Generator.choice(V, p=...)`` picks it: the first index whose
    normalised cdf exceeds the uniform."""
    state = model.start(source)
    tokens: Tokens = ()
    for _ in range(max_len):
        probs, _, state = model.step(state, tokens)
        probs = _checked(model, probs)
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        token = int(cdf.searchsorted(rng.random(), side="right"))
        tokens = tokens + (token,)
        if token == model.eos_id:
            break
    return tokens


def strip_eos(tokens: Sequence[int], eos_id: int) -> Tokens:
    out = tuple(tokens)
    while out and out[-1] == eos_id:
        out = out[:-1]
    return out


def _ngram_counts(tokens: Sequence[int], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: Sequence[int], reference: Sequence[int]) -> Iterator[tuple[int, int]]:
    """For n = 1..4, lazily: the candidate's n-grams matched in the reference,
    each clipped to its reference count, and the candidate's n-gram total."""
    for n in range(1, 5):
        ref_counts = _ngram_counts(reference, n)
        matched = sum(min(count, ref_counts[gram]) for gram, count in _ngram_counts(candidate, n).items())
        yield matched, max(len(candidate) - n + 1, 0)


def sentence_bleu(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Smoothed sentence BLEU-4 in [0, 1].

    Modified n-gram precisions for n = 1..4 with add-one smoothing on both
    numerator and denominator for n >= 2; unigram precision is unsmoothed so
    zero lexical overlap scores exactly 0. Brevity penalty
    exp(min(0, 1 - |ref|/|cand|)).
    """
    if len(reference) == 0:
        raise MetricError("reference must be non-empty")
    if len(candidate) == 0:
        return 0.0
    log_precisions = []
    for n, (matched, total) in enumerate(_clipped_matches(candidate, reference), start=1):
        if n == 1:
            if matched == 0:
                return 0.0
            log_precisions.append(math.log(matched / total))
        else:
            log_precisions.append(math.log((matched + 1) / (total + 1)))
    brevity = min(0.0, 1.0 - len(reference) / len(candidate))
    return math.exp(brevity + math.fsum(log_precisions) / 4.0)


def corpus_bleu(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> float:
    """Unsmoothed corpus BLEU-4 with pooled n-gram counts and pooled brevity penalty."""
    if not pairs:
        raise MetricError("corpus BLEU needs at least one (candidate, reference) pair")
    matched = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for candidate, reference in pairs:
        cand_len += len(candidate)
        ref_len += len(reference)
        for k, (m, t) in enumerate(_clipped_matches(candidate, reference)):
            matched[k] += m
            totals[k] += t
    if cand_len == 0 or any(m == 0 for m in matched) or any(t == 0 for t in totals):
        return 0.0
    log_precisions = [math.log(m / t) for m, t in zip(matched, totals)]
    brevity = min(0.0, 1.0 - ref_len / cand_len)
    return math.exp(brevity + math.fsum(log_precisions) / 4.0)


def bleu_or_degenerate(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """sentence_bleu extended to empty references: 1 on an exact empty match, else 0."""
    if len(reference) == 0:
        return 1.0 if len(candidate) == 0 else 0.0
    return sentence_bleu(candidate, reference)


def expected_bleu(
    model: ScoringModel,
    source,
    prediction: Sequence[int],
    rng: Uniforms,
    num_samples: int = 100,
    max_len: int = 64,
) -> float:
    """Monte Carlo estimate of the BLEU the prediction earns against references
    drawn from the model's own sequence distribution, ``sample_sequence``
    with ``rng`` (any object with ``random()``)."""
    if num_samples < 1:
        raise MetricError("expected BLEU needs at least one sample")
    cand = strip_eos(prediction, model.eos_id)
    scores = [
        bleu_or_degenerate(
            cand, strip_eos(sample_sequence(model, source, rng, max_len), model.eos_id)
        )
        for _ in range(num_samples)
    ]
    return math.fsum(scores) / num_samples


def structured_ece(
    points: Iterable[tuple[float, float]],
    bins: BinningConfig = BinningConfig(),
) -> tuple[float, ReliabilityHistogram]:
    """Calibration gap between expected and actual BLEU, binned by expected BLEU."""
    materialized = list(points)
    if not materialized:
        raise MetricError("structured calibration needs at least one point")
    for expected, actual in materialized:
        if not (0.0 <= expected <= 1.0 and 0.0 <= actual <= 1.0):
            raise MetricError(f"BLEU values must lie in [0, 1], got ({expected}, {actual})")
    expected, actual = np.array(materialized, dtype=np.float64).T
    return _finalize(bins, len(materialized), expected, (np.ones(len(expected)), expected, actual, actual - expected))
