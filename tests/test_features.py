import math

import numpy as np
import pytest

from seqcal.errors import FeatureError
from seqcal.features import attention_entropy, coverage, enrich
from seqcal.records import SequenceRecord, StepFeatures

from conftest import make_record, random_simplex


class TestAttentionEntropy:
    def test_uniform_maximizes(self):
        assert attention_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert attention_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_two_way_split(self):
        assert attention_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_permutation_invariant(self, rng):
        for _ in range(30):
            alpha = random_simplex(rng, int(rng.integers(2, 10)))
            shuffled = rng.permutation(alpha)
            assert attention_entropy(alpha) == pytest.approx(attention_entropy(shuffled), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(FeatureError):
            attention_entropy([0.5, 0.4])

    def test_negative_rejected(self):
        with pytest.raises(FeatureError):
            attention_entropy([1.2, -0.2])


class TestCoverage:
    def test_strict_threshold_count(self):
        assert coverage([0.9, 0.4, 0.1]) == pytest.approx(2 / 3)

    def test_all_zero(self):
        assert coverage([0.0, 0.0]) == 0.0

    def test_all_above(self):
        assert coverage([0.5, 0.9, 0.8]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(FeatureError):
            coverage([])

    def test_infinite_weight_rejected(self):
        with pytest.raises(FeatureError, match="must be finite"):
            coverage([math.inf, 0.0])

    @pytest.mark.parametrize("weight, message", [
        (-0.1, "must be non-negative"),
        (math.nan, "must be non-negative"),
        (-math.inf, "must be non-negative"),
        (math.inf, "must be finite"),
    ])
    def test_invalid_weight_messages(self, weight, message):
        for cum in ([0.5, weight], [[0.5, 0.2], [weight, 0.9]]):  # one vector, and a batch of rows
            with pytest.raises(FeatureError, match=f"^cumulative attention weights {message}$"):
                coverage(cum)

    def test_batch_without_rows(self):
        assert coverage(np.zeros((0, 3))).shape == (0,)


def seq_of(steps):
    return SequenceRecord(seq_id="s", steps=tuple(steps))


class TestEnrich:
    def test_cumulative_coverage_grows(self):
        steps = [
            make_record([1.0], gold=0, t=1, attention=[1.0, 0.0]),
            make_record([1.0], gold=0, t=2, attention=[0.0, 1.0]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features.coverage == pytest.approx(0.5)
        assert enriched.steps[1].features.coverage == pytest.approx(1.0)

    def test_precomputed_features_pass_through(self):
        feats = StepFeatures(entropy=0.123, coverage=0.456)
        steps = [make_record([1.0], gold=0, t=1, features=feats)]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features == feats

    def test_uniform_attention_entropy(self):
        steps = [
            make_record([1.0], gold=0, t=t, attention=[0.25] * 4) for t in range(1, 4)
        ]
        enriched = enrich(seq_of(steps))
        for step in enriched.steps:
            assert step.features.entropy == pytest.approx(math.log(4), abs=1e-12)

    def test_idempotent(self, rng):
        steps = []
        for t in range(1, 6):
            alpha = random_simplex(rng, 4)
            steps.append(make_record([1.0], gold=0, t=t, attention=alpha))
        once = enrich(seq_of(steps))
        twice = enrich(once)
        assert once == twice

    def test_coverage_monotone_in_t(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 6))
            steps = [
                make_record([1.0], gold=0, t=t, attention=random_simplex(rng, k))
                for t in range(1, n + 1)
            ]
            enriched = enrich(seq_of(steps))
            covs = [s.features.coverage for s in enriched.steps]
            assert all(b >= a for a, b in zip(covs, covs[1:]))

    def test_attention_recovered_from_cumulative_diffs(self):
        steps = [
            make_record([1.0], gold=0, t=1, cum_attention=[0.3, 0.7]),
            make_record([1.0], gold=0, t=2, cum_attention=[1.3, 0.7]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features.entropy == pytest.approx(attention_entropy([0.3, 0.7]))
        assert enriched.steps[1].features.entropy == pytest.approx(0.0)
        assert enriched.steps[1].features.coverage == pytest.approx(1.0)

    def test_step_without_any_source_named_in_error(self):
        seq = SequenceRecord(seq_id="bad", steps=(make_record([1.0], gold=0, seq_id="bad", t=1),))
        with pytest.raises(FeatureError, match=r"'bad'.*1"):
            enrich(seq)

    def test_cum_attention_filled_when_reconstructed(self):
        steps = [
            make_record([1.0], gold=0, t=1, attention=[1.0, 0.0]),
            make_record([1.0], gold=0, t=2, attention=[1.0, 0.0]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[1].cum_attention == pytest.approx((2.0, 0.0))


GAP_FEATURES = StepFeatures(entropy=0.4, coverage=0.5)


def gap_sequence(cum, features=None, *later):
    """Attention at step 1, features only at step 2, ``cum_attention`` only at step 3."""
    steps = [make_record([1.0], gold=0, seq_id="g", t=1, attention=[0.3, 0.7]),
             make_record([1.0], gold=0, seq_id="g", t=2, features=GAP_FEATURES),
             make_record([1.0], gold=0, seq_id="g", t=3, cum_attention=cum, features=features)]
    steps += [make_record([1.0], gold=0, seq_id="g", t=t, cum_attention=c) for t, c in enumerate(later, 4)]
    return SequenceRecord("g", tuple(steps))


class TestFeaturesGap:
    @pytest.mark.parametrize("cum", [(0.6, 1.4), (0.5, 0.5)])
    def test_cumulative_only_step_after_the_gap_is_rejected(self, cum):
        # step 2's cumulative attention is unknown, so step 3's attention cannot be differenced
        with pytest.raises(FeatureError, match="sequence 'g' step 3: attention unknown after a step that carries "
                                               "only features"):
            enrich(gap_sequence(cum))

    def test_cumulative_only_step_after_the_gap_with_features_passes(self):
        feats = StepFeatures(entropy=0.1, coverage=0.2)
        out = enrich(gap_sequence((0.6, 1.4), feats, (1.1, 1.9))).steps
        assert out[2].features == feats and out[2].cum_attention == (0.6, 1.4)
        # the next step differences against step 3's stored cumulative attention
        assert out[3].features.entropy == pytest.approx(math.log(2), abs=1e-12)
        assert out[3].features.coverage == 1.0


class TestNonFiniteWeights:
    @pytest.mark.parametrize("alpha", [[math.nan, 1.0], [0.5, math.nan]])
    def test_entropy_rejects(self, alpha):
        with pytest.raises(FeatureError):
            attention_entropy(alpha)

    @pytest.mark.parametrize("cum", [[math.nan, 1.0], [0.5, math.nan]])
    def test_coverage_rejects(self, cum):
        with pytest.raises(FeatureError, match="non-negative"):
            coverage(cum)

    @pytest.mark.parametrize("vectors, message", [
        (dict(attention=[math.nan, 1.0], cum_attention=[math.nan, 1.0]), "attention weights must be finite"),
        (dict(cum_attention=[0.5, math.nan]), "cumulative attention weights must be finite"),
        (dict(attention=[math.inf, 0.0]), "attention weights must be finite"),
    ])
    def test_enrich_rejects_and_names_the_step_not_a_gap(self, vectors, message):
        steps = [make_record([1.0], gold=0, t=1, attention=[0.5, 0.5]),
                 make_record([1.0], gold=0, t=2, **vectors),
                 make_record([1.0], gold=0, t=3, attention=[0.5, 0.5])]
        with pytest.raises(FeatureError, match=f"sequence 's' step 2: {message}"):
            enrich(seq_of(steps))
