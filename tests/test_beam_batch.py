"""Batched beam search and batched ``CalibratedModel`` rows against the
per-hypothesis code they replaced.

``reference_beam_search`` below is a copy of ``beam_search`` as it was when
it called ``step`` once per live hypothesis. The batched search must find
the same hypotheses bit for bit wherever the model's batch rows equal its
one-row steps. The variable calibrator's rows may differ in the last bit:
``ScalarNet.forward`` rounds its matrix products differently at different
batch widths, so there tokens must agree and log-probabilities lie within
1e-12. The ``beam_sweep`` digests were recorded with the per-hypothesis
search (numpy 2.4 on x86-64). Last, the one check that beam search and
sampling make of a step's distributions: non-finite rows and a batch of
the wrong number of rows raise ModelError.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from seqcal.errors import ModelError
from seqcal.recalibrate import THETA_SIZE, CalibratedModel, CalibratorParams, SingleTemperature
from seqcal.records import PROB_ATOL
from seqcal.sequence import BeamConfig, Hypothesis, ScoringModel, beam_search, sample_sequence
from seqcal.toybench import DistortionSpec, ToyModel, ToyTaskSpec, _draw_pairs, beam_sweep, distort

from test_sequence import TwoStepModel, random_positional_model
from test_step_batch import rows_by_position

TASK = ToyTaskSpec.two_way_default(eos_floor=0.02)


def reference_beam_search(model, source, cfg):
    """``beam_search`` with one checked ``step`` per live hypothesis."""
    live = [(0.0, (), model.start(source))]
    finished = []
    for _ in range(cfg.max_len):
        if not live:
            break
        candidates = []
        for log_prob, prefix, state in live:
            probs, _, next_state = model.step(state, prefix)
            probs = np.asarray(probs, dtype=np.float64)
            if probs.shape != (model.vocab_size,):
                raise ModelError(f"model emitted {probs.shape} probabilities for V={model.vocab_size}")
            if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > PROB_ATOL:
                raise ModelError(f"model emitted an invalid distribution (sum={float(probs.sum()):.8f})")
            order = np.argsort(-probs, kind="stable")[: cfg.beam_width]
            for token in order:
                p = probs[token]
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

    def final_score(log_prob, tokens):
        if cfg.length_normalize and tokens:
            return log_prob / len(tokens)
        return log_prob

    hypotheses = [
        Hypothesis(tokens=tokens, log_prob=log_prob, score=final_score(log_prob, tokens))
        for log_prob, tokens in finished
    ]
    hypotheses.sort(key=lambda h: (-h.score, h.tokens))
    return hypotheses


def variable_params(seed, plus_one=False):
    """Every parameter drawn uniformly from [-2, 2]."""
    return CalibratorParams.from_flat(np.random.default_rng(seed).uniform(-2.0, 2.0, THETA_SIZE), plus_one)


def distorted():
    return distort(ToyModel(TASK), DistortionSpec(temperature=0.5, eos_bias=1.5))


EXACT = {
    "toy": lambda: ToyModel(TASK),
    "distorted": distorted,
    "flat": lambda: distort(ToyModel(TASK), DistortionSpec(temperature=2.0, eos_bias=2.5)),
    "single": lambda: CalibratedModel(distorted(), SingleTemperature(1.7)),
    "single-sharp": lambda: CalibratedModel(ToyModel(TASK), SingleTemperature(0.4)),
}
VARIABLE = {
    "variable": lambda: CalibratedModel(distorted(), variable_params(3)),
    "variable-plus-one": lambda: CalibratedModel(distorted(), variable_params(4, True)),
    "variable-true": lambda: CalibratedModel(ToyModel(TASK), variable_params(5)),
}
CONFIGS = [BeamConfig(beam_width=1, max_len=12), BeamConfig(beam_width=3, max_len=12),
           BeamConfig(beam_width=16, max_len=12), BeamConfig(beam_width=5, max_len=4, length_normalize=True)]


def sources(n, seed):
    return [_draw_pairs(TASK, [np.random.default_rng((seed, i))])[0][0] for i in range(n)]


@pytest.mark.parametrize("name", EXACT)
def test_batched_beam_search_equals_the_per_hypothesis_search(name):
    model = EXACT[name]()
    for source in sources(12, seed=1):
        for cfg in CONFIGS:
            assert beam_search(model, source, cfg) == reference_beam_search(model, source, cfg), (source, cfg)


def test_a_model_without_step_batch_searches_as_before(rng):
    for _ in range(10):
        model = random_positional_model(rng, steps=6, vocab=8)
        for cfg in CONFIGS:
            assert beam_search(model, None, cfg) == reference_beam_search(model, None, cfg)


@pytest.mark.parametrize("name", VARIABLE)
def test_variable_calibrator_beams_agree_within_rounding(name):
    model = VARIABLE[name]()
    for source in sources(12, seed=2):
        for cfg in CONFIGS:
            got, want = beam_search(model, source, cfg), reference_beam_search(model, source, cfg)
            assert [h.tokens for h in got] == [h.tokens for h in want], (source, cfg)
            for g, w in zip(got, want):
                assert abs(g.log_prob - w.log_prob) <= 1e-12 and abs(g.score - w.score) <= 1e-12


class Counting(ScoringModel):
    """Delegates to a model and records the prefix lengths of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.batches, self.steps = [], 0

    @property
    def vocab_size(self):
        return self.inner.vocab_size

    @property
    def eos_id(self):
        return self.inner.eos_id

    def start(self, source):
        return self.inner.start(source)

    def step(self, state, prefix):
        self.steps += 1
        return self.inner.step(state, prefix)

    def step_batch(self, states, prefixes):
        self.batches.append({len(prefix) for prefix in prefixes})
        return self.inner.step_batch(states, prefixes)


@pytest.mark.parametrize("name", ["distorted", "single"])
def test_one_step_batch_call_per_beam_step(name):
    for source in sources(5, seed=3):
        for cfg in CONFIGS:
            model = Counting(EXACT[name]())
            hypotheses = beam_search(model, source, cfg)
            assert model.steps == 0
            # call t holds every live prefix of length t, and the search stops when the longest ends
            assert model.batches == [{t} for t in range(max(len(h.tokens) for h in hypotheses))]


@pytest.mark.parametrize("params, atol", [
    (SingleTemperature(1.7), 0.0), (SingleTemperature(0.3), 0.0),
    (variable_params(6), 1e-15), (variable_params(7, True), 1e-15),
], ids=["single", "single-sharp", "variable", "variable-plus-one"])
def test_batched_calibrated_rows_equal_one_row_steps(params, atol):
    model = CalibratedModel(distorted(), params)
    for states, prefixes in rows_by_position(model, TASK, 9, seed=4):
        probs, alpha, next_states = model.step_batch(states, prefixes)
        for i, row in enumerate(zip(states, prefixes)):
            want, want_alpha, want_state = model.step(*row)
            if atol:
                assert np.abs(probs[i] - want).max() <= atol
            else:
                assert np.array_equal(probs[i], want)
            assert np.array_equal(alpha[i], want_alpha) and np.array_equal(next_states[i][1], want_state[1])


SWEEP_DIGESTS = {
    "distorted": "cfe7589f86e83e7485ec1b801ab6efdab4c04baa87c2a854d4f7c78925a540ac",
    "single": "73d6be3358bb7dd648f6b4568a27d6169ff22bf8624736154817f68c6c5167c3",
    "variable": "8fd53be2203ddb45206824a12c5fd08caaa14ad9bc79061bd982ddc020a70fc2",
    "variable-plus-one": "922514cba84cc82fabb7234a51ce52a80815e4de37db4e78286730d1291d02b2",
}


@pytest.mark.parametrize("name", SWEEP_DIGESTS)
def test_beam_sweep_results_are_unchanged(name):
    model = {**EXACT, **VARIABLE}[name]()
    rows = beam_sweep(model, TASK, [1, 2, 4, 16], n_eval=30, seed=5)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SWEEP_DIGESTS[name]


class Fixed(ScoringModel):
    """Every step emits the same row over three tokens, EOS last."""

    vocab_size, eos_id = 3, 2

    def __init__(self, row):
        self.row = np.array(row)

    def start(self, source):
        return None

    def step(self, state, prefix):
        return self.row.copy(), np.array([1.0]), None


@pytest.mark.parametrize("row", [[math.nan, 0.5, 0.5], [math.inf, 0.5, 0.5], [0.5, -math.inf, 0.5]])
def test_non_finite_distributions_are_rejected(row):
    model = Fixed(row)
    with pytest.raises(ModelError, match="non-finite distribution"):
        beam_search(model, None, BeamConfig(beam_width=2, max_len=3))
    with pytest.raises(ModelError, match="non-finite distribution"):
        sample_sequence(model, None, np.random.default_rng(0), max_len=3)


def test_a_batch_of_the_wrong_number_of_rows_is_rejected():
    class ExtraRow(TwoStepModel):
        def step_batch(self, states, prefixes):
            probs, alpha, next_states = super().step_batch(states, prefixes)
            return np.vstack([probs, probs[:1]]), alpha, next_states

    with pytest.raises(ModelError, match=r"\(2, 5\) probabilities, expected \(1, 5\)"):
        beam_search(ExtraRow(), None, BeamConfig(beam_width=2, max_len=3))
