import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from seqcal.errors import FeatureError, FitError
from seqcal.features import attention_entropy, coverage, enrich_batch
from seqcal.metrics import nll
from seqcal.recalibrate import (
    CalibratedModel,
    CalibratorParams,
    ScalarNet,
    THETA_SIZE,
    SingleTemperature,
    TrainConfig,
    _forward_backward,
    _fit_pool,
    apply_calibrator,
    apply_single_temperature,
    calibration_gradient,
    calibration_nll,
    eos_correction,
    fit_calibrator,
    fit_single_temperature,
    golden_section,
    initial_params,
    load_params,
    log_sigmoid,
    recalibrate_log,
    save_params,
    sigmoid,
    single_temperature_nll,
)
from seqcal.records import LogBatch, StepFeatures, densify
from seqcal.sequence import ScoringModel
from seqcal.toybench import DistortionSpec, ToyTaskSpec, build_true_model, distort, emit_logs, flatten

from conftest import make_feature_record, make_record, random_simplex


def inverse_temperature(a_t: float, l_prime: float, params: CalibratorParams) -> float:
    """The variable calibrator's inverse temperature g(a_t) * h(l') for one token."""
    offset = 1.0 if params.plus_one else 0.0
    g_out, _ = params.g_net.forward(np.asarray([a_t]))
    h_out, _ = params.h_net.forward(np.asarray([l_prime]))
    return float((g_out[0] + offset) * (h_out[0] + offset))


def zero_params(plus_one=False, w1=1.0, w2=0.35):
    return CalibratorParams(w1=w1, w2=w2, g_net=ScalarNet.zeros(), h_net=ScalarNet.zeros(), plus_one=plus_one)


def biased_net(bias):
    net = ScalarNet.zeros()
    net.b3 = bias
    return net


def random_params(seed, plus_one=False, scale=0.5):
    rng = np.random.default_rng(seed)
    theta = np.concatenate([[1.0, 0.35], rng.uniform(-scale, scale, 44)])
    return CalibratorParams.from_flat(theta, plus_one)


def random_feature_records(n, vocab=5, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        probs = random_simplex(rng, vocab)
        records.append(
            make_feature_record(
                probs,
                gold=int(rng.integers(vocab)),
                entropy=float(rng.uniform(0.0, 2.0)),
                coverage=float(rng.uniform(0.0, 1.0)),
                seq_id=f"r{i}",
            )
        )
    return records


def test_sigmoids_equal_masked_two_branch_forms_exactly(rng):
    x = np.concatenate([rng.normal(0.0, 3.0, 500), rng.normal(0.0, 400.0, 500),
                        [0.0, -0.0, 36.8, -36.8, 745.0, -745.0, 800.0, -800.0]])
    pos = x >= 0
    expected, expected_log = np.empty_like(x), np.empty_like(x)
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    expected_log[pos] = -np.log1p(np.exp(-x[pos]))
    expected_log[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    assert np.array_equal(sigmoid(x), expected)
    assert np.array_equal(log_sigmoid(x), expected_log)
    assert sigmoid(float(x[0])) == expected[0] and log_sigmoid(float(x[0])) == expected_log[0]


class TestEosCorrection:
    def test_only_eos_component_changes(self):
        logits = np.array([-1.0, -2.0, -0.5])
        out = eos_correction(logits, c_t=0.4, eos_id=2, params=zero_params())
        assert out[0] == logits[0] and out[1] == logits[1]
        assert out[2] < logits[2]

    def test_coverage_at_pivot_shifts_by_log_half(self):
        logits = np.zeros(3)
        out = eos_correction(logits, c_t=0.35, eos_id=1, params=zero_params())
        assert out[1] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_full_coverage_near_identity(self):
        params = zero_params(w1=10.0, w2=0.5)
        out = eos_correction(np.zeros(2), c_t=1.0, eos_id=0, params=params)
        expected = math.log(1.0 / (1.0 + math.exp(-5.0)))
        assert out[0] == pytest.approx(expected, abs=1e-12)
        assert abs(out[0]) < 0.01

    def test_correction_nonpositive_and_monotone_in_coverage(self, rng):
        for _ in range(30):
            params = zero_params(w1=float(rng.uniform(0.1, 10)), w2=float(rng.uniform(0, 1)))
            covs = np.sort(rng.uniform(0, 1, 5))
            shifts = [
                eos_correction(np.zeros(2), c, eos_id=1, params=params)[1] for c in covs
            ]
            assert all(s < 0 for s in shifts)
            assert all(b >= a for a, b in zip(shifts, shifts[1:]))

    @pytest.mark.parametrize("plus_one", [False, True])
    def test_is_the_correction_apply_makes(self, rng, plus_one):
        """With both nets at zero, g = h = 1/2 (3/2 with ``plus_one``) for
        every token, so apply is the softmax of g * h times the corrected
        log-probabilities of a record that lists every token."""
        factor = 2.25 if plus_one else 0.25
        for w1 in (-3.0, 0.5, 2.0, 12.0):
            for w2 in (0.0, 0.35, 0.8):
                for c in (0.0, 0.2, 0.35, 0.7, 1.0):
                    params = zero_params(plus_one, w1=w1, w2=w2)
                    probs = random_simplex(rng, 6)
                    eos = int(rng.integers(6))
                    record = make_feature_record(probs, gold=0, entropy=0.5, coverage=c, eos_id=eos)
                    z = factor * eos_correction(np.log(probs), c, eos, params)
                    want = np.exp(z - z.max())
                    want /= want.sum()
                    np.testing.assert_allclose(apply_calibrator(record, params), want, rtol=0, atol=1e-12)


class TestInverseTemperature:
    def test_range_without_plus_one(self, rng):
        params = random_params(1, plus_one=False)
        for _ in range(20):
            value = inverse_temperature(float(rng.uniform(0, 3)), float(rng.uniform(-20, 0)), params)
            assert 0.0 < value < 1.0

    def test_range_with_plus_one(self, rng):
        params = random_params(2, plus_one=True)
        for _ in range(20):
            value = inverse_temperature(float(rng.uniform(0, 3)), float(rng.uniform(-20, 0)), params)
            assert 1.0 < value < 4.0

    def test_zeroed_nets_give_quarter(self):
        assert inverse_temperature(1.0, -2.0, zero_params()) == pytest.approx(0.25, abs=1e-15)


class TestApply:
    def test_identity_limit(self):
        # near-zero sigmoid outputs with plus_one give factors ~1, and a huge
        # w1 at full coverage makes the EOS damping vanish
        params = CalibratorParams(
            w1=1e4, w2=0.5, g_net=biased_net(-40.0), h_net=biased_net(-40.0), plus_one=True
        )
        record = make_feature_record([0.4, 0.1, 0.5], gold=0, entropy=0.7, coverage=1.0)
        out = apply_calibrator(record, params)
        np.testing.assert_allclose(out, densify(record), atol=1e-6)

    def test_constant_inverse_temperature_preserves_argmax(self):
        params = CalibratorParams(
            w1=1e4, w2=0.5, g_net=biased_net(0.3), h_net=biased_net(-0.2), plus_one=False
        )
        record = make_feature_record([0.2, 0.1, 0.45, 0.25], gold=0, entropy=0.7, coverage=1.0)
        out = apply_calibrator(record, params)
        assert int(np.argmax(out)) == int(np.argmax(densify(record)))

    def test_vanishing_inverse_temperature_flattens_to_uniform(self):
        params = CalibratorParams(
            w1=1e4, w2=0.5, g_net=biased_net(-40.0), h_net=biased_net(-40.0), plus_one=False
        )
        record = make_feature_record([0.4, 0.1, 0.5], gold=0, entropy=0.7, coverage=1.0)
        out = apply_calibrator(record, params)
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_output_is_distribution_and_keeps_zeros(self, rng):
        for seed in range(20):
            params = random_params(seed, plus_one=bool(seed % 2))
            probs = random_simplex(rng, 6)
            probs[2] = 0.0
            probs = probs / probs.sum()
            record = make_feature_record(
                probs, gold=0, entropy=float(rng.uniform(0, 2)), coverage=float(rng.uniform(0, 1))
            )
            out = apply_calibrator(record, params)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)
            assert out[2] == 0.0

    def test_missing_features_rejected(self):
        record = make_record([0.5, 0.5], gold=0)
        with pytest.raises(FeatureError, match="no attention, cumulative attention, or features"):
            apply_calibrator(record, zero_params())


class TestGradient:
    def test_matches_central_finite_differences(self):
        for inst in range(5):
            records = random_feature_records(10, vocab=5, seed=100 + inst)
            params = random_params(50 + inst, plus_one=bool(inst % 2))
            grad = calibration_gradient(params, records)
            theta = params.to_flat()
            prep = _fit_pool(records)
            h = 1e-5
            fd = np.zeros_like(theta)
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                f_up, _, _ = _forward_backward(up, prep, params.plus_one, want_grad=False)
                f_down, _, _ = _forward_backward(down, prep, params.plus_one, want_grad=False)
                fd[k] = (f_up - f_down) / (2 * h)
            diff = np.abs(grad - fd)
            # components below the finite-difference noise floor are held to
            # an absolute bound instead of a ratio of rounding errors
            measurable = np.maximum(np.abs(grad), np.abs(fd)) > 1e-6
            rel = diff[measurable] / np.maximum(np.abs(fd[measurable]), np.abs(grad[measurable]))
            assert rel.max() < 1e-4
            if (~measurable).any():
                assert diff[~measurable].max() < 1e-9

    def test_zero_gradient_at_single_active_token(self):
        # a one-hot record is a local minimum: the masked softmax is 1
        # whatever the parameters, so the loss is flat at 0
        record = make_feature_record({1: 1.0}, gold=1, vocab_size=4, entropy=0.5, coverage=0.5)
        grad = calibration_gradient(random_params(3), [record])
        assert np.linalg.norm(grad) < 1e-6
        assert calibration_nll([record], random_params(3)) == 0.0

    def test_zero_nets_give_finite_gradient(self):
        records = random_feature_records(6, seed=9)
        grad = calibration_gradient(zero_params(), records)
        assert np.all(np.isfinite(grad))


class TestFit:
    def test_final_nll_never_worse_than_init(self):
        records = random_feature_records(60, seed=4)
        cfg = TrainConfig(learning_rate=0.3, max_epochs=150, seed=1)
        fitted = fit_calibrator(records, cfg)
        init_nll = calibration_nll(records, initial_params(cfg, plus_one=False))
        assert calibration_nll(records, fitted) <= init_nll + 1e-12

    def test_deterministic_given_seed(self):
        records = random_feature_records(40, seed=5)
        cfg = TrainConfig(learning_rate=0.3, max_epochs=100, seed=7)
        a = fit_calibrator(records, cfg)
        b = fit_calibrator(records, cfg)
        assert np.array_equal(a.to_flat(), b.to_flat())

    def test_empty_dataset_rejected(self):
        with pytest.raises(FitError):
            fit_calibrator([], TrainConfig())

    @pytest.mark.parametrize("rate", [math.nan, 0.0, -0.2])
    def test_learning_rate_must_be_positive(self, rate):
        with pytest.raises(FitError, match=f"learning_rate must be positive, got {rate}"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("epochs", [2.5, 0, -3, True, "100"])
    def test_max_epochs_must_be_a_positive_integer(self, epochs):
        with pytest.raises(FitError, match="max_epochs must be a positive integer"):
            TrainConfig(max_epochs=epochs)

    def test_a_numpy_integer_epoch_budget_is_accepted(self):
        assert TrainConfig(max_epochs=np.int64(5)).max_epochs == 5

    def test_records_without_features_fit_as_their_enriched_copy(self):
        records = random_feature_records(4, seed=6)
        records[2] = replace(records[2], features=None,
                             attention=np.array([0.5, 0.5]), cum_attention=np.array([1.0, 0.5]))
        enriched = enrich_batch(LogBatch.from_records(records))
        params = random_params(3)
        cfg = TrainConfig(max_epochs=5)
        assert np.array_equal(fit_calibrator(records, cfg).to_flat(), fit_calibrator(enriched, cfg).to_flat())
        assert calibration_nll(records, params) == calibration_nll(enriched, params)
        assert np.array_equal(calibration_gradient(params, records), calibration_gradient(params, enriched))

    def test_divergence_aborts_with_record_context(self):
        # an absurd learning rate slams the EOS damping into hard sigmoid
        # saturation, sending the EOS-gold losses to infinity
        records = []
        for i in range(6):
            records.append(
                make_feature_record(
                    {0: 0.3, 3: 0.7}, gold=0, vocab_size=4, eos_id=3,
                    entropy=0.5, coverage=0.05, seq_id=f"n{i}",
                )
            )
        for i in range(2):
            records.append(
                make_feature_record(
                    {0: 0.3, 3: 0.7}, gold=3, vocab_size=4, eos_id=3,
                    entropy=0.5, coverage=0.05, seq_id=f"e{i}",
                )
            )
        with pytest.raises(FitError, match="non-finite"):
            fit_calibrator(records, TrainConfig(learning_rate=1e9, max_epochs=50, seed=0))

    def test_fit_does_not_damage_calibrated_data(self):
        task = ToyTaskSpec.two_way_default()
        records = flatten(emit_logs(build_true_model(task), task, 400, seed=2))
        raw = nll(records)
        fitted = fit_calibrator(
            records, TrainConfig(learning_rate=0.5, max_epochs=600, seed=0), plus_one=True
        )
        assert abs(calibration_nll(records, fitted) - raw) / raw < 0.01

    def test_variable_fit_matches_single_temperature_on_sharpened_data(self):
        task = ToyTaskSpec.two_way_default()
        sharp = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        records = flatten(emit_logs(sharp, task, 300, seed=3))
        t_single = fit_single_temperature(records)
        fitted = fit_calibrator(
            records, TrainConfig(learning_rate=0.5, max_epochs=1200, seed=0), plus_one=False
        )
        assert calibration_nll(records, fitted) <= single_temperature_nll(records, t_single) + 1e-3


class TestSingleTemperature:
    def test_golden_section_finds_quadratic_minimum(self):
        assert golden_section(lambda x: (x - 1.7) ** 2, 0.0, 10.0, tol=1e-10) == pytest.approx(1.7, abs=1e-6)

    def test_already_calibrated_recovers_unit_temperature(self):
        task = ToyTaskSpec.two_way_default()
        records = flatten(emit_logs(build_true_model(task), task, 3000, seed=6))
        assert fit_single_temperature(records) == pytest.approx(1.0, rel=0.05)

    def test_sharpening_recovered_as_inverse_temperature(self):
        task = ToyTaskSpec.two_way_default()
        sharp = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        records = flatten(emit_logs(sharp, task, 3000, seed=6))
        fitted = fit_single_temperature(records)
        assert 1.0 / fitted == pytest.approx(0.5, rel=0.05)

    def test_one_hot_degenerate_returns_lower_bound(self):
        record = make_record({0: 1.0}, gold=0, vocab_size=3)
        assert fit_single_temperature([record]) < 0.06

    def test_apply_identity_at_unit_temperature(self):
        record = make_record([0.4, 0.1, 0.5], gold=0)
        np.testing.assert_allclose(apply_single_temperature(record, 1.0), densify(record), atol=1e-12)

    def test_apply_flattens_to_uniform_at_high_temperature(self):
        record = make_record([0.4, 0.1, 0.5], gold=0)
        np.testing.assert_allclose(apply_single_temperature(record, 1e9), np.full(3, 1 / 3), atol=1e-6)

    def test_apply_square_and_normalize(self):
        record = make_record([0.4, 0.1, 0.5], gold=0)
        expected = np.array([0.16, 0.01, 0.25]) / 0.42
        np.testing.assert_allclose(apply_single_temperature(record, 0.5), expected, atol=1e-12)

    def test_ranking_preserved_for_any_temperature(self, rng):
        for _ in range(20):
            record = make_record(random_simplex(rng, 7), gold=0)
            temperature = float(rng.uniform(0.05, 20))
            order = np.argsort(apply_single_temperature(record, temperature))
            np.testing.assert_array_equal(order, np.argsort(densify(record)))


BAD_TEMPERATURES = [math.nan, math.inf, -math.inf, 0.0, -1.0]


class TestTemperatureCheck:
    """A temperature must lie in (0, inf): every entry point raises the same
    FitError, NaN and infinities included."""

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_single_temperature(self, temperature):
        with pytest.raises(FitError, match="temperature must be positive"):
            SingleTemperature(temperature)

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_recalibrate_log(self, temperature):
        records = [make_record([0.5, 0.3, 0.2], gold=0)]
        with pytest.raises(FitError, match="temperature must be positive"):
            recalibrate_log(records, SingleTemperature(temperature))

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_single_temperature_nll(self, temperature):
        records = [make_record([0.5, 0.3, 0.2], gold=0)]
        with pytest.raises(FitError, match="temperature must be positive"):
            single_temperature_nll(records, temperature)

    @pytest.mark.parametrize("temperature", BAD_TEMPERATURES)
    def test_apply_single_temperature(self, temperature):
        with pytest.raises(FitError, match="temperature must be positive"):
            apply_single_temperature(make_record([0.5, 0.3, 0.2], gold=0), temperature)


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        params = random_params(11, plus_one=True)
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert isinstance(loaded, CalibratorParams)
        assert loaded.plus_one is True
        np.testing.assert_array_equal(loaded.to_flat(), params.to_flat())

    def test_single_temperature_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, SingleTemperature(temperature=1.75))
        loaded = load_params(path)
        assert loaded == SingleTemperature(temperature=1.75)

    def test_version_tag_enforced(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"version": "other", "mode": "single", "temperature": 1.0}')
        with pytest.raises(Exception):
            load_params(path)


class TestCalibratedModel:
    def test_wrapper_matches_record_level_application(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        model = distort(build_true_model(task), DistortionSpec(temperature=0.6, eos_bias=1.0))
        params = random_params(21)
        wrapped = CalibratedModel(model, params)
        sequences = emit_logs(model, task, 5, seed=13)
        for seq in sequences:
            state = wrapped.start(seq.source)
            for t, step in enumerate(seq.steps, start=1):
                probs, _, state = wrapped.step(state, seq.reference[: t - 1])
                np.testing.assert_allclose(probs, apply_calibrator(step, params), atol=1e-12)

    def test_single_temperature_wrapper(self):
        task = ToyTaskSpec.two_way_default()
        model = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        wrapped = CalibratedModel(model, SingleTemperature(temperature=2.0))
        sequences = emit_logs(model, task, 3, seed=14)
        for seq in sequences:
            state = wrapped.start(seq.source)
            for t, step in enumerate(seq.steps, start=1):
                probs, _, state = wrapped.step(state, seq.reference[: t - 1])
                np.testing.assert_allclose(probs, apply_single_temperature(step, 2.0), atol=1e-12)

    def test_saturating_params_step_without_warnings(self):
        """Net weights of 1e200 overflow the nets to inf; the step stays quiet and valid."""
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        model = distort(build_true_model(task), DistortionSpec(temperature=0.6, eos_bias=1.0))
        theta = np.full(THETA_SIZE, 1e200)
        theta[:2] = [1.0, 0.35]
        wrapped = CalibratedModel(model, CalibratorParams.from_flat(theta, False))
        seq = emit_logs(model, task, 1, seed=13)[0]
        state = wrapped.start(seq.source)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(1, len(seq.steps) + 1):
                probs, _, state = wrapped.step(state, seq.reference[: t - 1])
                assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-9


def attention_records(seed):
    """Two sequences of records carrying attention and cum_attention but no features."""
    rng = np.random.default_rng(seed)
    records = []
    for seq_id, steps, source in (("a", 4, 3), ("b", 3, 5)):
        cum = np.zeros(source)
        for t in range(1, steps + 1):
            alpha = random_simplex(rng, source)
            cum = cum + alpha
            records.append(make_record(random_simplex(rng, 6), gold=int(rng.integers(6)), seq_id=seq_id, t=t,
                                       attention=alpha, cum_attention=cum))
    return records


class TestDerivedFeatures:
    def test_apply_derives_the_features_it_would_read(self):
        params = random_params(8)
        bare = attention_records(8)
        stored = [replace(r, features=StepFeatures(attention_entropy(r.attention), coverage(r.cum_attention)))
                  for r in bare]
        got, want = recalibrate_log(bare, params), recalibrate_log(stored, params)
        for name in ("offsets", "ids", "probs", "rest_mass"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # got carries the features it derived
        assert got.has_features.all()
        assert np.array_equal(got.entropy, want.entropy) and np.array_equal(got.coverage, want.coverage)

    @pytest.mark.parametrize("missing", ["attention", "cum_attention"])
    def test_a_bare_record_needs_one_vector(self, missing):
        both = attention_records(9)[0]
        record, params = replace(both, **{missing: None}), random_params(9)
        got, want = recalibrate_log([record], params), recalibrate_log([both], params)
        for name in ("offsets", "ids", "probs", "rest_mass", "entropy", "coverage"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(apply_calibrator(record, params), apply_calibrator(both, params))
        neither = replace(both, attention=None, cum_attention=None)
        for call in (lambda: recalibrate_log([neither], params), lambda: apply_calibrator(neither, params)):
            with pytest.raises(FeatureError, match="sequence 'a' step 1: no attention"):
                call()


class NanAttentionModel(ScoringModel):
    vocab_size, eos_id = 3, 2

    def start(self, source):
        return None

    def step(self, state, prefix):
        return np.array([0.5, 0.3, 0.2]), np.array([math.nan, 1.0]), state


class TestNanAttention:
    def test_apply_rejects_a_record_with_nan_attention(self):
        record = make_record([0.5, 0.5], gold=0, attention=[math.nan, 1.0], cum_attention=[math.nan, 1.0])
        with pytest.raises(FeatureError, match="finite"):
            apply_calibrator(record, random_params(4))

    def test_calibrated_model_rejects_a_model_with_nan_attention(self):
        model = CalibratedModel(NanAttentionModel(), random_params(4))
        with pytest.raises(FeatureError, match="non-negative"):
            model.step(model.start([0]), [])
