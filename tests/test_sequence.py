import math

import numpy as np
import pytest

from seqcal.errors import MetricError, ModelError
from seqcal.records import BinningConfig
from seqcal.sequence import (
    BeamConfig,
    RescoringModel,
    ScoringModel,
    beam_search,
    corpus_bleu,
    expected_bleu,
    sample_sequence,
    sentence_bleu,
    strip_eos,
    structured_ece,
)

# chi-square upper quantiles at alpha = 0.001 by degrees of freedom
CHI2_CRIT = {4: 18.4668269529, 5: 20.5150056524, 9: 27.8771648655}


class TwoStepModel(ScoringModel):
    """Vocabulary 0..4 (4 = EOS): two ambiguous content steps, then certain EOS.

    Step one is deliberately miscalibrated relative to step two: the top
    first token leads to a weaker continuation than the runner-up, so wider
    beams surface a higher-scoring but different sequence.
    """

    @property
    def vocab_size(self):
        return 5

    @property
    def eos_id(self):
        return 4

    def start(self, source):
        return None

    def step(self, state, prefix):
        probs = np.zeros(5)
        if len(prefix) == 0:
            probs[0], probs[1] = 0.4, 0.6
        elif len(prefix) == 1:
            if prefix[0] == 0:
                probs[2], probs[3] = 0.91, 0.09
            else:
                probs[2], probs[3] = 0.4, 0.6
        else:
            probs[4] = 1.0
        return probs, np.array([1.0]), None


class PositionalModel(ScoringModel):
    """Random prefix-independent model: one fixed distribution per step."""

    def __init__(self, rows, eos_row_index):
        self.rows = rows
        self._eos = rows.shape[1] - 1
        self.eos_row_index = eos_row_index

    @property
    def vocab_size(self):
        return self.rows.shape[1]

    @property
    def eos_id(self):
        return self._eos

    def start(self, source):
        return None

    def step(self, state, prefix):
        t = min(len(prefix), self.rows.shape[0] - 1)
        return self.rows[t].copy(), np.array([1.0]), None


def random_positional_model(rng, steps=5, vocab=6, eos_leak=0.05):
    rows = rng.dirichlet(np.ones(vocab - 1) * 0.8, size=steps)
    rows = np.concatenate([rows * (1 - eos_leak), np.full((steps, 1), eos_leak)], axis=1)
    rows[-1] = 0.0
    rows[-1, -1] = 1.0
    return PositionalModel(rows, steps - 1)


class Reversed(RescoringModel):
    """Reverses each step's distribution and keeps what ``rescore`` saw."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = []

    def rescore(self, probs, alpha, cum):
        if probs.ndim == 2:  # a batch: each row as one step rescores it
            return np.array([self.rescore(*row) for row in zip(probs, alpha, cum)])
        self.seen.append((alpha.tolist(), cum.tolist()))
        return probs[::-1].copy()


class TestRescoringModel:
    def test_rescores_each_step_with_running_cumulative_attention(self):
        model = Reversed(TwoStepModel())
        assert (model.vocab_size, model.eos_id) == (5, 4)
        for _ in range(2):  # a fresh start resets the cumulative attention
            state, prefix = model.start(None), ()
            for token in (1, 3, 4):
                probs, alpha, state = model.step(state, prefix)
                inner_probs, _, _ = TwoStepModel().step(None, prefix)
                np.testing.assert_array_equal(probs, inner_probs[::-1])
                assert alpha.tolist() == [1.0]
                prefix += (token,)
        assert model.seen == [([1.0], [1.0]), ([1.0], [2.0]), ([1.0], [3.0])] * 2


class TestBeamSearch:
    def test_greedy_finds_first_step_favorite(self):
        top = beam_search(TwoStepModel(), None, BeamConfig(beam_width=1, max_len=10))[0]
        assert top.tokens == (1, 3, 4)
        assert top.prob == pytest.approx(0.36, abs=1e-12)

    def test_wider_beam_finds_higher_scoring_sequence(self):
        hyps = beam_search(TwoStepModel(), None, BeamConfig(beam_width=2, max_len=10))
        assert hyps[0].tokens == (0, 2, 4)
        assert hyps[0].prob == pytest.approx(0.364, abs=1e-12)
        assert hyps[0].prob > hyps[1].prob

    def test_beam_one_equals_greedy_everywhere(self, rng):
        for _ in range(10):
            model = random_positional_model(rng)
            greedy = []
            prefix = ()
            state = model.start(None)
            for _ in range(10):
                probs, _, state = model.step(state, prefix)
                token = int(np.argmax(probs))
                prefix = prefix + (token,)
                if token == model.eos_id:
                    break
            top = beam_search(model, None, BeamConfig(beam_width=1, max_len=10))[0]
            assert top.tokens == prefix

    def test_log_prob_matches_recomputation(self, rng):
        model = random_positional_model(rng)
        for hyp in beam_search(model, None, BeamConfig(beam_width=3, max_len=10)):
            state = model.start(None)
            total = 0.0
            for t, token in enumerate(hyp.tokens):
                probs, _, state = model.step(state, hyp.tokens[:t])
                total += math.log(probs[token])
            assert hyp.log_prob == pytest.approx(total, abs=1e-12)

    def test_top_score_monotone_in_beam_width(self, rng):
        for _ in range(10):
            model = random_positional_model(rng)
            scores = [
                beam_search(model, None, BeamConfig(beam_width=b, max_len=10))[0].score
                for b in (1, 2, 4, 8)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_max_len_truncates(self):
        model = random_positional_model(np.random.default_rng(0), steps=8, eos_leak=0.0)
        top = beam_search(model, None, BeamConfig(beam_width=2, max_len=3))[0]
        assert len(top.tokens) == 3

    def test_length_normalized_score(self):
        top = beam_search(TwoStepModel(), None, BeamConfig(beam_width=1, max_len=10, length_normalize=True))[0]
        assert top.score == pytest.approx(top.log_prob / 3)

    def test_invalid_distribution_propagates(self):
        class Broken(TwoStepModel):
            def step(self, state, prefix):
                return np.array([0.5, 0.2, 0.0, 0.0, 0.0]), np.array([1.0]), None

        with pytest.raises(ModelError):
            beam_search(Broken(), None, BeamConfig(beam_width=1, max_len=3))


class TestSampling:
    def test_deterministic_model_always_same_sequence(self):
        rows = np.zeros((3, 4))
        rows[0, 1] = 1.0
        rows[1, 2] = 1.0
        rows[2, 3] = 1.0
        model = PositionalModel(rows, 2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert sample_sequence(model, None, rng, 10) == (1, 2, 3)

    def test_two_step_sequence_frequency(self):
        model = TwoStepModel()
        rng = np.random.default_rng(7)
        n = 20_000
        hits = sum(sample_sequence(model, None, rng, 10) == (1, 3, 4) for _ in range(n))
        assert hits / n == pytest.approx(0.36, abs=0.01)

    def test_max_len_truncation(self):
        model = random_positional_model(np.random.default_rng(1), steps=9, eos_leak=0.0)
        assert len(sample_sequence(model, None, np.random.default_rng(2), 3)) == 3

    def test_single_step_chi_square_goodness_of_fit(self):
        probs = np.array([0.05, 0.1, 0.2, 0.3, 0.25, 0.1])
        rows = probs[None, :]
        model = PositionalModel(rows, 0)

        class OneStep(PositionalModel):
            @property
            def eos_id(self):
                return -1  # never emitted: every sample is a single draw

        model = OneStep(rows, 0)
        rng = np.random.default_rng(13)
        n = 50_000
        counts = np.zeros(6)
        for _ in range(n):
            token = sample_sequence(model, None, rng, 1)[0]
            counts[token] += 1
        expected = probs * n
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRIT[5]


class TestSentenceBleu:
    def test_identity_is_one(self):
        assert sentence_bleu((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)) == pytest.approx(1.0, abs=1e-12)
        assert sentence_bleu((9,), (9,)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_unigram_overlap_is_zero(self):
        assert sentence_bleu((1, 2, 3), (4, 5, 6)) == 0.0

    def test_four_token_worked_example(self):
        # p1 = 3/4, smoothed p2 = 3/4, p3 = 2/3, p4 = 1/2, no brevity penalty
        expected = (0.75 * 0.75 * (2 / 3) * 0.5) ** 0.25
        assert sentence_bleu((1, 2, 3, 4), (1, 2, 3, 5)) == pytest.approx(expected, abs=1e-12)

    def test_empty_candidate_scores_zero(self):
        assert sentence_bleu((), (1, 2)) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            sentence_bleu((1,), ())

    def test_brevity_penalty_on_short_candidate(self):
        full = sentence_bleu((1, 2, 3, 4), (1, 2, 3, 4))
        short = sentence_bleu((1, 2, 3), (1, 2, 3, 4))
        assert short < full
        # identical n-gram precisions are all 1 for a strict prefix, so the
        # ratio isolates the brevity penalty
        assert short == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_range_and_symmetry_properties(self, rng):
        for _ in range(50):
            cand = tuple(int(t) for t in rng.integers(0, 6, int(rng.integers(1, 9))))
            ref = tuple(int(t) for t in rng.integers(0, 6, int(rng.integers(1, 9))))
            score = sentence_bleu(cand, ref)
            assert 0.0 <= score <= 1.0
            assert sentence_bleu(cand, cand) == pytest.approx(1.0, abs=1e-12)


class TestCorpusBleu:
    def test_identical_pairs_score_one(self):
        pairs = [((1, 2, 3, 4), (1, 2, 3, 4))] * 3
        assert corpus_bleu(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_equals_unsmoothed_sentence_value(self):
        cand, ref = (1, 2, 3, 4, 5), (1, 2, 3, 4, 6)
        # all unsmoothed precisions positive: 4/5, 3/4, 2/3, 1/2
        expected = math.exp(math.fsum(math.log(p) for p in (4 / 5, 3 / 4, 2 / 3, 1 / 2)) / 4)
        assert corpus_bleu([(cand, ref)]) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_vocabulary_scores_zero(self):
        assert corpus_bleu([((1, 2, 3, 4), (5, 6, 7, 8))]) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(MetricError):
            corpus_bleu([])


def exact_two_step_expected_bleu(prediction):
    support = {(0, 2): 0.364, (0, 3): 0.036, (1, 2): 0.24, (1, 3): 0.36}
    cand = strip_eos(prediction, 4)
    total = 0.0
    for seq, p in support.items():
        total += p * (sentence_bleu(cand, seq) if set(cand) & set(seq) or cand == seq else 0.0)
    return total


class TestExpectedBleu:
    def test_deterministic_model_own_output_scores_one(self):
        rows = np.zeros((3, 4))
        rows[0, 1] = rows[1, 2] = rows[2, 3] = 1.0
        model = PositionalModel(rows, 2)
        rng = np.random.default_rng(0)
        assert expected_bleu(model, None, (1, 2, 3), rng, num_samples=10) == pytest.approx(1.0)

    def test_deterministic_model_disjoint_prediction_scores_zero(self):
        rows = np.zeros((3, 4))
        rows[0, 1] = rows[1, 2] = rows[2, 3] = 1.0
        model = PositionalModel(rows, 2)
        rng = np.random.default_rng(0)
        assert expected_bleu(model, None, (0, 0), rng, num_samples=10) == 0.0

    def test_matches_exact_enumeration(self):
        model = TwoStepModel()
        exact = exact_two_step_expected_bleu((1, 3, 4))
        estimate = expected_bleu(model, None, (1, 3, 4), np.random.default_rng(3), num_samples=3000, max_len=10)
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_estimator_unbiased_under_replication(self):
        model = TwoStepModel()
        exact = exact_two_step_expected_bleu((1, 3, 4))
        rng = np.random.default_rng(17)
        estimates = [
            expected_bleu(model, None, (1, 3, 4), rng, num_samples=20, max_len=10) for _ in range(200)
        ]
        mean = float(np.mean(estimates))
        stderr = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        assert abs(mean - exact) < 4 * stderr + 1e-9


class TestStructuredEce:
    def test_diagonal_is_zero(self):
        points = [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)]
        assert structured_ece(points)[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_gap(self):
        points = [(0.8, 0.6)] * 10
        assert structured_ece(points)[0] == pytest.approx(0.2, abs=1e-12)

    def test_two_bins_weighted_mean_of_gaps(self):
        points = [(0.15, 0.25)] * 5 + [(0.85, 0.55)] * 5
        assert structured_ece(points)[0] == pytest.approx(0.5 * 0.1 + 0.5 * 0.3, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            structured_ece([])

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricError):
            structured_ece([(1.2, 0.5)])

    def test_histogram_reusable_for_export(self):
        from seqcal.metrics import export_reliability

        points = [(0.12, 0.2), (0.18, 0.1), (0.77, 0.7)]
        score, hist = structured_ece(points, BinningConfig(10))
        rows = export_reliability(hist)
        assert rows[1]["mass"] == pytest.approx(2 / 3)
        assert rows[7]["avg_confidence"] == pytest.approx(0.77)
