"""Acceptance checklist: one numbered criterion per test, each asserting its
stated tolerance and runtime budget and printing a pass/fail line.

Criterion 1 is split so that its strict-ordering sub-claim, which cannot hold
under the per-bin absolute-gap aggregation (both worked distributions score
exactly 0.5), stays an isolated, documented red while everything else gates
the build.
"""

import time

import numpy as np
import pytest

from seqcal.cli import main
from seqcal.metrics import ece, weighted_ece
from seqcal.records import BinningConfig, densify
from seqcal.recalibrate import (
    CalibratedModel,
    CalibratorParams,
    ScalarNet,
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
    single_temperature_nll,
)
from seqcal.sequence import BeamConfig, ScoringModel, beam_search, sample_sequence
from seqcal.toybench import (
    DistortionSpec,
    ToyTaskSpec,
    beam_sweep,
    build_true_model,
    distort,
    emit_logs,
    flatten,
    sequence_calibration_experiment,
)

from conftest import make_feature_record, make_record, random_simplex

CHI2_CRIT_DF5_ALPHA_001 = 20.5150056524


def report(number, description, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


P1 = make_record([0.4, 0.1, 0.5], gold=0, seq_id="p1")
P2 = make_record([0.0, 0.5, 0.5], gold=0, seq_id="p2")
BINS10 = BinningConfig(10)


class TestCriterion1WorkedExample:
    def test_1a_top1_scores_exactly_half(self):
        started = time.perf_counter()
        assert ece([P1], BINS10)[0] == pytest.approx(0.5, abs=1e-12)
        assert ece([P2], BINS10)[0] == pytest.approx(0.5, abs=1e-12)
        report("1a", "top-1 calibration error is exactly 0.5 for both records", started, 1.0)

    def test_1b_weighted_score_of_second_record_exact(self):
        started = time.perf_counter()
        assert weighted_ece([P2], BINS10)[0] == pytest.approx(0.5, abs=1e-12)
        report("1b", "weighted score of [0, .5, .5] is exactly 0.5", started, 1.0)

    def test_1c_weighted_score_matches_term_by_term_evaluation(self):
        started = time.perf_counter()
        hand_evaluated = 0.4 * abs(1 - 0.4) + 0.1 * abs(0 - 0.1) + 0.5 * abs(0 - 0.5)
        assert hand_evaluated == pytest.approx(0.50, abs=1e-12)
        assert weighted_ece([P1], BINS10)[0] == pytest.approx(hand_evaluated, abs=1e-12)
        report("1c", "weighted score of [.4, .1, .5] equals its term-by-term value 0.50", started, 1.0)

    def test_1d_strict_ordering_claim(self):
        """Documented red: each term of the worked pair lands in its own
        width-0.1 bin, so both scores evaluate to exactly 0.5 and the strict
        ordering below cannot hold; the assertion is kept as an honest record
        of the target claim rather than weakened."""
        started = time.perf_counter()
        w_p1 = weighted_ece([P1], BINS10)[0]
        w_p2 = weighted_ece([P2], BINS10)[0]
        ok = w_p1 < w_p2
        status = "PASS" if ok else "FAIL"
        elapsed = time.perf_counter() - started
        print(f"[{status}] criterion 1d: weighted score orders [.4,.1,.5] strictly below "
              f"[0,.5,.5] (got {w_p1} vs {w_p2}) ({elapsed:.2f}s < 1s)")
        assert w_p1 < w_p2


class BeamOracleModel(ScoringModel):
    vocab_size = property(lambda self: 5)
    eos_id = property(lambda self: 4)

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


class TestCriterion2BeamOracle:
    def test_beam_widths_find_documented_sequences(self):
        started = time.perf_counter()
        model = BeamOracleModel()
        narrow = beam_search(model, None, BeamConfig(beam_width=1, max_len=8))[0]
        assert narrow.tokens == (1, 3, 4)
        assert narrow.prob == pytest.approx(0.36, abs=1e-12)
        wide = beam_search(model, None, BeamConfig(beam_width=2, max_len=8))[0]
        assert wide.tokens == (0, 2, 4)
        assert wide.prob == pytest.approx(0.364, abs=1e-12)
        report(2, "beam width 1 scores 0.36, width 2 finds 0.364", started, 1.0)


class TestCriterion3StatisticalCalibration:
    def test_true_model_calibrated_sharpened_model_not(self):
        started = time.perf_counter()
        task = ToyTaskSpec.two_way_default()
        true_model = build_true_model(task)
        records_true = flatten(emit_logs(true_model, task, 14500, seed=0))
        assert len(records_true) >= 100_000
        score_true = weighted_ece(records_true)[0]
        assert score_true < 0.01

        sharp = distort(true_model, DistortionSpec(temperature=0.5))
        records_sharp = flatten(emit_logs(sharp, task, 14500, seed=0))
        score_sharp = weighted_ece(records_sharp)[0]
        assert score_sharp > 0.05
        report(3, f"weighted scores: true {score_true:.4f} < 0.01, sharpened {score_sharp:.4f} > 0.05",
               started, 30.0)


class TestCriterion4TemperatureRecovery:
    def test_recovery_and_variable_fit_parity(self):
        started = time.perf_counter()
        task = ToyTaskSpec.two_way_default()
        true_model = build_true_model(task)
        for tau in (0.5, 2.0):
            distorted = distort(true_model, DistortionSpec(temperature=tau))
            sequences = emit_logs(distorted, task, 7200, seed=31)
            records = flatten(sequences)
            assert len(records) >= 50_000
            fitted = fit_single_temperature(records)
            # the fitted temperature inverts the injected distortion
            assert 1.0 / fitted == pytest.approx(tau, rel=0.05)

            validation = flatten(sequences[:600])
            t_val = fit_single_temperature(validation)
            single_nll = single_temperature_nll(validation, t_val)
            params = fit_calibrator(
                validation,
                TrainConfig(learning_rate=0.5, max_epochs=1200, seed=0),
                plus_one=tau > 1.0,
            )
            assert calibration_nll(validation, params) <= single_nll + 1e-3
        report(4, "fitted T inverts tau in {0.5, 2.0} within 5%; variable fit matches single-T NLL",
               started, 120.0)


class TestCriterion5GradientCorrectness:
    def test_analytic_gradient_matches_finite_differences(self):
        """Relative error < 1e-4 component-wise against central differences at
        step 1e-5. Central differences carry a cancellation noise floor of
        about 1e-11 absolute here, so components whose magnitude sits below
        1e-6 are held to that absolute bound instead of a meaningless ratio
        of two rounding errors."""
        started = time.perf_counter()
        worst = 0.0
        worst_abs = 0.0
        for inst in range(20):
            rng = np.random.default_rng(1000 + inst)
            records = []
            for i in range(10):
                probs = random_simplex(rng, 5)
                records.append(
                    make_feature_record(
                        probs, gold=int(rng.integers(5)),
                        entropy=float(rng.uniform(0, 2)), coverage=float(rng.uniform(0, 1)),
                        seq_id=f"r{i}",
                    )
                )
            theta = np.concatenate([[1.0, 0.35], rng.uniform(-0.5, 0.5, 44)])
            plus_one = bool(inst % 2)
            params = CalibratorParams.from_flat(theta, plus_one)
            grad = calibration_gradient(params, records)
            prep = _fit_pool(records)
            fd = np.zeros_like(theta)
            h = 1e-5
            for k in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[k] += h
                down[k] -= h
                f_up, _, _ = _forward_backward(up, prep, plus_one, want_grad=False)
                f_down, _, _ = _forward_backward(down, prep, plus_one, want_grad=False)
                fd[k] = (f_up - f_down) / (2 * h)
            diff = np.abs(grad - fd)
            measurable = np.maximum(np.abs(grad), np.abs(fd)) > 1e-6
            if measurable.any():
                rel = diff[measurable] / np.maximum(np.abs(fd[measurable]), np.abs(grad[measurable]))
                worst = max(worst, float(rel.max()))
            if (~measurable).any():
                worst_abs = max(worst_abs, float(diff[~measurable].max()))
        assert worst < 1e-4
        assert worst_abs < 1e-9
        report(5, f"analytic gradient matches central differences (worst rel {worst:.2e}, "
                  f"worst tiny-component abs {worst_abs:.1e})", started, 10.0)


class TestCriterion6BeamSweepRepair:
    @pytest.mark.slow
    def test_recalibration_shrinks_beam_drop(self):
        started = time.perf_counter()
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        true_model = build_true_model(task)
        biased = distort(true_model, DistortionSpec(temperature=1.0, eos_bias=2.5))
        for seed in (0, 1, 2):
            fit_records = flatten(emit_logs(biased, task, 300, seed=500 + seed))
            params = fit_calibrator(
                fit_records,
                TrainConfig(learning_rate=0.5, max_epochs=600, seed=seed),
                plus_one=False,
            )
            recalibrated = CalibratedModel(biased, params)
            rows_biased = beam_sweep(biased, task, [1, 16], n_eval=250, seed=seed)
            rows_recal = beam_sweep(recalibrated, task, [1, 16], n_eval=250, seed=seed)
            drop_biased = rows_biased[0]["corpus_bleu"] - rows_biased[1]["corpus_bleu"]
            drop_recal = rows_recal[0]["corpus_bleu"] - rows_recal[1]["corpus_bleu"]
            assert drop_biased > 0.01, f"seed {seed}: no measurable drop ({drop_biased:.4f})"
            assert drop_recal < drop_biased, f"seed {seed}: drop not reduced"
        report(6, "corpus BLEU drop from B=1 to B=16 strictly shrinks after recalibration (3 seeds)",
               started, 300.0)


class TestCriterion7SequenceCalibrationRepair:
    @pytest.mark.slow
    def test_recalibration_improves_structured_score(self):
        started = time.perf_counter()
        task = ToyTaskSpec.two_way_default()
        true_model = build_true_model(task)
        sharp = distort(true_model, DistortionSpec(temperature=0.5))
        for seed in (0, 1, 2):
            fit_records = flatten(emit_logs(sharp, task, 400, seed=700 + seed))
            params = fit_calibrator(
                fit_records,
                TrainConfig(learning_rate=0.5, max_epochs=800, seed=seed),
                plus_one=False,
            )
            recalibrated = CalibratedModel(sharp, params)
            res_sharp = sequence_calibration_experiment(
                sharp, task, n_eval=120, num_samples=100, bins=BinningConfig(20), seed=seed)
            res_recal = sequence_calibration_experiment(
                recalibrated, task, n_eval=120, num_samples=100, bins=BinningConfig(20), seed=seed)
            assert res_recal.score <= res_sharp.score, (
                f"seed {seed}: {res_recal.score:.4f} > {res_sharp.score:.4f}"
            )
        report(7, "structured calibration score of the recalibrated model never exceeds the distorted one (3 seeds)",
               started, 300.0)


class TestCriterion8InvariantSuites:
    def test_invariant_suites(self, tmp_path):
        started = time.perf_counter()
        rng = np.random.default_rng(88)

        # normalization after every recalibration path
        for seed in range(10):
            theta = np.concatenate([[1.0, 0.35], np.random.default_rng(seed).uniform(-0.5, 0.5, 44)])
            params = CalibratorParams.from_flat(theta, bool(seed % 2))
            record = make_feature_record(
                random_simplex(rng, 8), gold=int(rng.integers(8)),
                entropy=float(rng.uniform(0, 2)), coverage=float(rng.uniform(0, 1)),
            )
            assert abs(apply_calibrator(record, params).sum() - 1.0) < 1e-9
            assert abs(apply_single_temperature(record, float(rng.uniform(0.05, 20))).sum() - 1.0) < 1e-9

        # bin-mass conservation
        records = [
            make_record(random_simplex(rng, 6), gold=int(rng.integers(6)), seq_id=f"r{i}")
            for i in range(300)
        ]
        for metric in (ece, weighted_ece):
            _, hist = metric(records)
            assert abs(hist.mass.sum() - 1.0) < 1e-9

        # single-temperature ranking preservation
        for _ in range(20):
            record = make_record(random_simplex(rng, 7), gold=0)
            temperature = float(rng.uniform(0.05, 20))
            assert np.array_equal(
                np.argsort(apply_single_temperature(record, temperature)),
                np.argsort(densify(record)),
            )

        # EOS correction non-positive and monotone in coverage for w1 > 0
        zero = CalibratorParams(w1=2.0, w2=0.4, g_net=ScalarNet.zeros(), h_net=ScalarNet.zeros())
        shifts = [eos_correction(np.zeros(3), c, 2, zero)[2] for c in np.linspace(0, 1, 11)]
        assert all(s < 0 for s in shifts)
        assert all(b > a for a, b in zip(shifts, shifts[1:]))

        # beam top score monotone in width for every bench model flavor
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        biased = distort(build_true_model(task), DistortionSpec(temperature=0.8, eos_bias=1.5))
        quick_fit = fit_calibrator(
            flatten(emit_logs(biased, task, 60, seed=3)),
            TrainConfig(learning_rate=0.5, max_epochs=100, seed=0),
        )
        for model in (build_true_model(task), biased, CalibratedModel(biased, quick_fit)):
            source = (3, 1, 4, 1, 5)
            scores = [
                beam_search(model, source, BeamConfig(beam_width=b, max_len=8))[0].score
                for b in (1, 2, 4, 8, 16)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

        # sampling goodness of fit at alpha = 0.001
        probs = np.array([0.05, 0.1, 0.2, 0.3, 0.25, 0.1])

        class OneStep(ScoringModel):
            vocab_size = property(lambda self: 6)
            eos_id = property(lambda self: -1)

            def start(self, source):
                return None

            def step(self, state, prefix):
                return probs.copy(), np.array([1.0]), None

        sampler = np.random.default_rng(13)
        counts = np.zeros(6)
        n = 50_000
        for _ in range(n):
            counts[sample_sequence(OneStep(), None, sampler, 1)[0]] += 1
        stat = float(((counts - probs * n) ** 2 / (probs * n)).sum())
        assert stat < CHI2_CRIT_DF5_ALPHA_001

        # determinism: identical seeds give byte-identical CLI outputs
        spec_path = tmp_path / "task.json"
        ToyTaskSpec.two_way_default(min_len=3, max_len=4).save(spec_path)
        outputs = []
        for name in ("a", "b"):
            logs = tmp_path / f"{name}.jsonl"
            rep = tmp_path / f"{name}.json"
            assert main(["toy", "gen", "--spec", str(spec_path), "--n", "60",
                         "--logs-out", str(logs), "--seed", "5"]) == 0
            assert main(["stats", "--logs", str(logs), "--weighted", "--out", str(rep)]) == 0
            outputs.append((logs.read_bytes(), rep.read_bytes()))
        assert outputs[0] == outputs[1]

        report(8, "distribution, binning, ranking, monotonicity, sampling, and determinism invariants hold",
               started, 120.0)
