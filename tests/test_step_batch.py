"""Batched model steps and batched teacher forcing against the per-step code.

The references below are copies of the per-step code that ``step_batch``
replaced: the toy model's ``step``, the distortion's ``rescore``, the
``sample_sequence``-based pair draw and the per-sequence, per-step
``emit_logs`` loop. Batched rows must equal them bit for bit, and the
batched log must serialise to the same bytes.
"""

import numpy as np
import pytest

from seqcal.errors import ModelError
from seqcal.features import attention_entropy, coverage
from seqcal.records import SequenceRecord, StepFeatures, TokenRecord, write_log_file
from seqcal.sequence import RescoringModel, ScoringModel, sample_sequence
from seqcal.toybench import (
    DistortionSpec,
    ToyModel,
    ToyTaskSpec,
    distort,
    emit_log_batch,
    emit_logs,
    _draw_pair,
    flatten,
)

from test_sequence import PositionalModel, Reversed, TwoStepModel, random_positional_model


class ReferenceToyModel(ScoringModel):
    """The toy model's per-step arithmetic before ``step_batch``."""

    def __init__(self, spec):
        self.spec = spec
        self._emissions = np.asarray(spec.emissions, dtype=np.float64)

    @property
    def vocab_size(self):
        return self.spec.target_vocab_size

    @property
    def eos_id(self):
        return self.spec.eos_id

    def start(self, source):
        return tuple(source)

    def step(self, state, prefix):
        source = state
        k = len(source)
        t = len(prefix) + 1
        if t <= k:
            probs = self._emissions[source[t - 1]].copy()
        else:
            probs = np.zeros(self.vocab_size)
            probs[self.eos_id] = 1.0
        gamma = self.spec.gamma
        alpha = np.full(k, gamma * (1.0 / k))
        alpha[min(t, k) - 1] += 1.0 - gamma
        return probs, alpha, state


class ReferenceDistortedModel(RescoringModel):
    """The distortion's per-step ``rescore`` before it took batches; a batch
    runs it row by row."""

    def __init__(self, inner, distortion):
        super().__init__(inner)
        self.distortion = distortion

    def rescore(self, probs, alpha, cum):
        if probs.ndim == 2:
            return np.array([self.rescore(*row) for row in zip(probs, alpha, cum)])
        active = probs > 0
        z = np.full(probs.shape, -np.inf)
        z[active] = np.log(probs[active]) / self.distortion.temperature
        if self.distortion.eos_bias > 0 and active[self.eos_id]:
            z[self.eos_id] += self.distortion.eos_bias * (1.0 - coverage(cum))
        out = np.zeros(probs.shape)
        zs = z[active]
        e = np.exp(zs - zs.max())
        out[active] = e / e.sum()
        return out


def reference_pair(task, rng):
    k = int(rng.integers(task.min_len, task.max_len + 1))
    source = tuple(int(s) for s in rng.integers(0, task.source_vocab_size, k))
    return source, sample_sequence(ReferenceToyModel(task), source, rng, max_len=k + 1)


def reference_emit_logs(model, task, n_sequences, seed):
    """The per-sequence, per-step teacher-forcing loop."""
    sequences = []
    for i in range(n_sequences):
        source, reference = reference_pair(task, np.random.default_rng((seed, 0, i)))
        seq_id = f"toy-{i:06d}"
        state = model.start(source)
        cum = None
        steps = []
        for t, gold in enumerate(reference, start=1):
            probs, alpha, state = model.step(state, reference[: t - 1])
            probs = np.asarray(probs, dtype=np.float64)
            alpha = np.asarray(alpha, dtype=np.float64)
            cum = alpha.copy() if cum is None else cum + alpha
            nonzero = np.flatnonzero(probs)
            steps.append(TokenRecord(
                seq_id=seq_id, t=t, vocab_size=model.vocab_size, eos_id=model.eos_id, gold_id=int(gold),
                entries=tuple(zip(nonzero.tolist(), probs[nonzero].tolist())), rest_mass=0.0,
                attention=tuple(alpha.tolist()), cum_attention=tuple(cum.tolist()),
                features=StepFeatures(attention_entropy(alpha), coverage(cum)),
            ))
        sequences.append(SequenceRecord(
            seq_id=seq_id, steps=tuple(steps), source=source, reference=reference,
        ))
    return sequences


TASKS = {
    "default": ToyTaskSpec.two_way_default(eos_floor=0.02),
    "no-eos-mass": ToyTaskSpec.two_way_default(eos_floor=0.0, gamma=0.0),
    "fixed-length": ToyTaskSpec.two_way_default(eos_floor=0.05, min_len=3, max_len=3),
    "wide": ToyTaskSpec.two_way_default(eos_floor=0.1, gamma=1.0, min_len=1, max_len=12),
}
DISTORTIONS = {
    "sharp-biased": DistortionSpec(temperature=0.5, eos_bias=1.5),
    "flat": DistortionSpec(temperature=2.0),
    "flat-biased": DistortionSpec(temperature=1.7, eos_bias=2.5),
    "identity": DistortionSpec(),
}


def models(task, distortion):
    """(model, its per-step reference) for the true model or a distortion of it."""
    if distortion is None:
        return ToyModel(task), ReferenceToyModel(task)
    return distort(ToyModel(task), distortion), ReferenceDistortedModel(ReferenceToyModel(task), distortion)


def rows_by_position(model, task, n, seed):
    """Each step position's (states, prefixes) for ``n`` sources of one
    length, with every prefix up to the final EOS-only step."""
    rng = np.random.default_rng(seed)
    k = task.max_len
    sources = [tuple(int(s) for s in rng.integers(0, task.source_vocab_size, k)) for _ in range(n)]
    prefixes = [tuple(int(x) for x in rng.integers(0, task.target_vocab_size, k)) for _ in range(n)]
    states = [model.start(source) for source in sources]
    for t in range(k + 1):
        yield states, [prefix[:t] for prefix in prefixes]
        states = [model.step(state, prefix[:t])[2] for state, prefix in zip(states, prefixes)]


def same(a, b) -> bool:
    """Equal bit for bit, through tuples of arrays and plain values."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def assert_rows_equal(batch, rows):
    """``batch``, one ``step_batch`` result, holds ``rows``, one ``step`` result each."""
    probs, alpha, next_states = batch
    assert probs.shape == (len(rows), len(rows[0][0])) and alpha.shape == (len(rows), len(rows[0][1]))
    for i, row in enumerate(rows):
        assert same((probs[i], alpha[i], next_states[i]), row), i


@pytest.mark.parametrize("distortion", [None, *DISTORTIONS], ids=["true", *DISTORTIONS])
@pytest.mark.parametrize("task", TASKS)
def test_step_and_step_batch_equal_the_per_step_reference(task, distortion):
    model, reference = models(TASKS[task], None if distortion is None else DISTORTIONS[distortion])
    for states, prefixes in rows_by_position(model, TASKS[task], 9, seed=3):
        expected = [reference.step(*row) for row in zip(states, prefixes)]
        assert_rows_equal(model.step_batch(states, prefixes), expected)
        for row, want in zip(zip(states, prefixes), expected):
            assert same(model.step(*row), want)


def test_eos_inactive_rows_stay_at_zero():
    task = TASKS["no-eos-mass"]
    model = distort(ToyModel(task), DistortionSpec(temperature=0.8, eos_bias=3.0))
    states, prefixes = next(rows_by_position(model, task, 5, seed=4))
    probs, _, _ = model.step_batch(states, prefixes)
    assert (probs[:, task.eos_id] == 0.0).all()


def test_the_default_step_batch_loops_step(rng):
    inner = random_positional_model(rng)
    for model in (inner, Reversed(inner), Reversed(TwoStepModel())):
        states, prefixes = [model.start(None)] * 3, [(), (0,), (0, 1, 2)]
        expected = [model.step(*row) for row in zip(states, prefixes)]
        assert_rows_equal(model.step_batch(states, prefixes), expected)


def sparse_positional_model(rng, steps=6, vocab=96):
    """Wide rows with zeros between their active tokens, whose sums a
    reduction over the whole row would associate differently."""
    rows = rng.dirichlet(np.ones(vocab), size=steps) * (rng.random((steps, vocab)) < 0.5)
    rows[:, -1] += 0.01
    rows /= rows.sum(axis=1, keepdims=True)
    return PositionalModel(rows, steps - 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_the_distortion_of_a_model_without_step_batch(rng, sparse):
    inner = sparse_positional_model(rng) if sparse else random_positional_model(rng, vocab=7)
    for distortion in (DistortionSpec(temperature=0.6, eos_bias=1.2), DistortionSpec(temperature=1.3)):
        model, reference = distort(inner, distortion), ReferenceDistortedModel(inner, distortion)
        states, prefixes = [model.start(None)] * 5, [(), (1,), (1, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
        started = [model.step(*row)[2] for row in zip(states, prefixes)]  # carries a cumulative attention
        for rows in ((states, prefixes), (started, prefixes), (started[:2] + states[2:], prefixes)):
            assert_rows_equal(model.step_batch(*rows), [reference.step(*row) for row in zip(*rows)])
            for row, want in zip(zip(*rows), (reference.step(*row) for row in zip(*rows))):
                assert same(model.step(*row), want)


@pytest.mark.parametrize("task", ["default", "no-eos-mass", "wide"])
def test_sample_pair_equals_ancestral_sampling(task):
    task = TASKS[task]
    model = ToyModel(task)
    for seed in range(1000):
        rng = np.random.default_rng((seed, 0, 7))
        k = int(rng.integers(task.min_len, task.max_len + 1))
        source = tuple(int(s) for s in rng.integers(0, task.source_vocab_size, k))
        expected = (source, sample_sequence(model, source, rng, max_len=k + 1))
        assert _draw_pair(model, np.random.default_rng((seed, 0, 7))) == expected, seed


def log_bytes(tmp_path, name, records):
    path = tmp_path / name
    write_log_file(path, records)
    return path.read_bytes()


@pytest.mark.parametrize("distortion", [None, "sharp-biased", "flat", "identity"])
@pytest.mark.parametrize("task", TASKS)
def test_batched_logs_serialise_to_the_per_step_bytes(tmp_path, task, distortion):
    spec = TASKS[task]
    model, reference = models(spec, None if distortion is None else DISTORTIONS[distortion])
    for seed, n in ((0, 0), (5, 1), (11, 90)):
        expected = reference_emit_logs(reference, spec, n, seed)
        got = log_bytes(tmp_path, "batch.jsonl", emit_log_batch(model, spec, n, seed))
        assert got == log_bytes(tmp_path, "reference.jsonl", flatten(expected))
        assert emit_logs(model, spec, n, seed) == expected


class ShortModel(ScoringModel):
    """The toy vocabulary, with every step's distribution summing to 0.9."""

    vocab_size, eos_id = 21, 20

    def start(self, source):
        return None

    def step(self, state, prefix):
        probs = np.zeros(21)
        probs[[0, 1, 20]] = 0.5, 0.3, 0.1
        return probs, np.array([1.0]), state


class BadShapeModel(ShortModel):
    def step(self, state, prefix):
        return np.array([0.5, 0.5]), np.array([1.0]), state


@pytest.mark.parametrize("emit", [emit_logs, emit_log_batch])
def test_an_unnormalised_model_fails_at_emission(emit):
    task = ToyTaskSpec.two_way_default(min_len=1, max_len=1)
    with pytest.raises(ModelError, match=r"sequence 'toy-000000' step 1: entries: .*sum to 0\.90000000"):
        emit(ShortModel(), task, 3, seed=0)


def test_a_model_of_the_wrong_width_fails_at_emission():
    task = ToyTaskSpec.two_way_default(min_len=1, max_len=1)
    with pytest.raises(ModelError, match=r"\(1, 2\) probabilities"):
        emit_log_batch(BadShapeModel(), task, 1, seed=0)
