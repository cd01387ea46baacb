import math

import numpy as np
import pytest

from seqcal.errors import SeqcalError, ValidationError
from seqcal.features import attention_entropy
from seqcal.metrics import weighted_ece
from seqcal.recalibrate import (
    CalibratedModel,
    TrainConfig,
    apply_single_temperature,
    fit_calibrator,
    fit_single_temperature,
)
from seqcal.records import validate_record
from seqcal.toybench import (
    DistortionSpec,
    ToyModel,
    ToyTaskSpec,
    _draw_pairs,
    beam_sweep,
    build_true_model,
    distort,
    emit_logs,
    flatten,
    sequence_calibration_experiment,
)


def deterministic_task():
    rows = []
    for s in range(4):
        row = [0.0] * 5
        row[s] = 1.0
        rows.append(tuple(row))
    return ToyTaskSpec(
        source_vocab_size=4, target_vocab_size=5, eos_id=4,
        min_len=3, max_len=5, gamma=0.0, seed=0, emissions=tuple(rows),
    )


class TestTrueModel:
    def test_one_hot_alignment_zero_entropy(self):
        task = ToyTaskSpec.two_way_default(gamma=0.0)
        model = build_true_model(task)
        state = model.start((3, 5, 7))
        for t in range(3):
            _, alpha, state = model.step(state, (0,) * t)
            assert attention_entropy(alpha) == 0.0

    def test_uniform_attention_max_entropy(self):
        task = ToyTaskSpec.two_way_default(gamma=1.0)
        model = build_true_model(task)
        _, alpha, _ = model.step(model.start((3, 5, 7, 2)), ())
        assert attention_entropy(alpha) == pytest.approx(math.log(4), abs=1e-12)

    def test_step_distribution_is_emission_row(self):
        task = ToyTaskSpec.two_way_default()
        model = build_true_model(task)
        probs, _, _ = model.step(model.start((6, 0)), ())
        expected = np.zeros(21)
        expected[6], expected[7] = 0.7, 0.3
        np.testing.assert_allclose(probs, expected, atol=0)

    def test_eos_after_last_source_token(self):
        task = ToyTaskSpec.two_way_default()
        model = build_true_model(task)
        probs, _, _ = model.step(model.start((1, 2)), (1, 2))
        assert probs[task.eos_id] == 1.0

    def test_models_over_a_task_share_its_one_read_only_table(self):
        task = ToyTaskSpec.two_way_default()
        assert build_true_model(task)._rows is task.table is ToyModel(task)._rows
        assert not task.table.flags.writeable
        assert task.table[:-1].tolist() == [list(row) for row in task.emissions]
        assert task.table[-1].tolist() == [0.0] * 20 + [1.0]

    def test_emission_rows_validated(self):
        with pytest.raises(ValidationError):
            ToyTaskSpec(
                source_vocab_size=1, target_vocab_size=3, eos_id=2,
                min_len=1, max_len=2, gamma=0.0, seed=0, emissions=((0.7, 0.2, 0.0),),
            )


class TestDistort:
    def test_identity_distortion(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.01)
        model = build_true_model(task)
        wrapped = distort(model, DistortionSpec(temperature=1.0, eos_bias=0.0))
        source = (4, 9, 2, 2)
        s0, s1 = model.start(source), wrapped.start(source)
        for t in range(5):
            p0, _, s0 = model.step(s0, (0,) * t)
            p1, _, s1 = wrapped.step(s1, (0,) * t)
            np.testing.assert_allclose(p1, p0, atol=1e-12)

    def test_sharpening_squares_and_normalizes(self):
        rows = ((0.4, 0.1, 0.5, 0.0),)
        task = ToyTaskSpec(
            source_vocab_size=1, target_vocab_size=4, eos_id=3,
            min_len=1, max_len=1, gamma=0.0, seed=0, emissions=rows,
        )
        wrapped = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        probs, _, _ = wrapped.step(wrapped.start((0,)), ())
        np.testing.assert_allclose(probs[:3], np.array([0.16, 0.01, 0.25]) / 0.42, atol=1e-12)

    def test_large_bias_at_zero_coverage_saturates_eos(self):
        task = ToyTaskSpec.two_way_default(gamma=1.0, eos_floor=0.01, min_len=4, max_len=4)
        wrapped = distort(build_true_model(task), DistortionSpec(temperature=1.0, eos_bias=200.0))
        probs, _, _ = wrapped.step(wrapped.start((0, 1, 2, 3)), ())
        assert probs[task.eos_id] > 0.999

    def test_bias_cannot_resurrect_zero_mass_eos(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.0)
        wrapped = distort(build_true_model(task), DistortionSpec(temperature=1.0, eos_bias=50.0))
        probs, _, _ = wrapped.step(wrapped.start((0, 1, 2)), ())
        assert probs[task.eos_id] == 0.0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValidationError):
            DistortionSpec(temperature=0.0)


class TestEmitLogs:
    def test_empty_request(self):
        task = ToyTaskSpec.two_way_default()
        assert emit_logs(build_true_model(task), task, 0, seed=0) == []

    def test_records_are_valid_and_teacher_forced(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        model = distort(build_true_model(task), DistortionSpec(temperature=0.7, eos_bias=1.0))
        sequences = emit_logs(model, task, 10, seed=3)
        for seq in sequences:
            assert seq.reference[-1] == task.eos_id
            assert seq.steps[-1].gold_id == task.eos_id
            state = model.start(seq.source)
            for t, step in enumerate(seq.steps, start=1):
                validate_record(step)
                assert step.t == t
                # what a decoder emits, and no field derived from it
                assert step.attention is not None and step.cum_attention is None and step.features is None
                probs, _, state = model.step(state, seq.reference[: t - 1])
                dense = np.zeros(task.target_vocab_size)
                for token, p in step.entries:
                    dense[token] = p
                np.testing.assert_allclose(dense, probs, atol=1e-12)

    def test_true_model_logs_nearly_calibrated(self):
        task = ToyTaskSpec.two_way_default()
        records = flatten(emit_logs(build_true_model(task), task, 4000, seed=0))
        assert weighted_ece(records)[0] < 0.01

    def test_sharpened_model_logs_miscalibrated(self):
        task = ToyTaskSpec.two_way_default()
        sharp = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        records = flatten(emit_logs(sharp, task, 3000, seed=0))
        assert weighted_ece(records)[0] > 0.05

    def test_reproducible_across_calls(self):
        task = ToyTaskSpec.two_way_default()
        a = emit_logs(build_true_model(task), task, 5, seed=9)
        b = emit_logs(build_true_model(task), task, 5, seed=9)
        assert a == b


class TestSingleTemperatureRecovery:
    def test_fitted_temperature_inverts_distortion_distributions(self):
        task = ToyTaskSpec.two_way_default()
        true_model = build_true_model(task)
        sharp = distort(true_model, DistortionSpec(temperature=0.5))
        sequences = emit_logs(sharp, task, 2000, seed=4)
        fitted = fit_single_temperature(flatten(sequences))
        gaps = []
        for seq in sequences[:100]:
            true_state = true_model.start(seq.source)
            for t, step in enumerate(seq.steps, start=1):
                true_probs, _, true_state = true_model.step(true_state, seq.reference[: t - 1])
                recovered = apply_single_temperature(step, fitted)
                gaps.append(0.5 * np.abs(recovered - true_probs).sum())
        assert float(np.mean(gaps)) < 0.01


class TestBeamSweep:
    def test_mean_log_score_non_decreasing_for_all_model_kinds(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        true_model = build_true_model(task)
        biased = distort(true_model, DistortionSpec(temperature=0.8, eos_bias=2.0))
        wrapped = CalibratedModel(
            biased,
            fit_calibrator(
                flatten(emit_logs(biased, task, 80, seed=5)),
                TrainConfig(learning_rate=0.5, max_epochs=120, seed=0),
            ),
        )
        for model in (true_model, biased, wrapped):
            rows = beam_sweep(model, task, [1, 2, 4], n_eval=40, seed=1)
            scores = [r["mean_log_score"] for r in rows]
            assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_calibrated_model_bleu_stable_in_beam(self):
        task = ToyTaskSpec.two_way_default()
        rows = beam_sweep(build_true_model(task), task, [1, 4], n_eval=150, seed=2)
        assert rows[1]["corpus_bleu"] >= rows[0]["corpus_bleu"] - 0.003

    def test_eos_biased_model_drops_with_beam(self):
        task = ToyTaskSpec.two_way_default(eos_floor=0.02)
        biased = distort(build_true_model(task), DistortionSpec(temperature=1.0, eos_bias=2.5))
        rows = beam_sweep(biased, task, [1, 16], n_eval=100, seed=2)
        assert rows[0]["corpus_bleu"] - rows[1]["corpus_bleu"] > 0.01

    def test_beams_required(self):
        task = ToyTaskSpec.two_way_default()
        with pytest.raises(Exception):
            beam_sweep(build_true_model(task), task, [], n_eval=5)


class TestSequenceCalibrationExperiment:
    def test_deterministic_task_perfectly_calibrated(self):
        task = deterministic_task()
        result = sequence_calibration_experiment(build_true_model(task), task, n_eval=12, num_samples=5)
        assert result.score == pytest.approx(0.0, abs=1e-12)
        for row in result.rows:
            assert row["expected_bleu"] == pytest.approx(row["actual_bleu"])

    def test_true_model_better_calibrated_than_sharpened(self):
        task = ToyTaskSpec.two_way_default()
        true_model = build_true_model(task)
        sharp = distort(true_model, DistortionSpec(temperature=0.5))
        res_true = sequence_calibration_experiment(true_model, task, n_eval=60, num_samples=40, seed=0)
        res_sharp = sequence_calibration_experiment(sharp, task, n_eval=60, num_samples=40, seed=0)
        assert res_true.score < res_sharp.score

    def test_single_sample_estimate_in_same_ballpark(self):
        task = ToyTaskSpec.two_way_default()
        sharp = distort(build_true_model(task), DistortionSpec(temperature=0.5))
        res_many = sequence_calibration_experiment(sharp, task, n_eval=40, num_samples=50, seed=0)
        res_one = sequence_calibration_experiment(sharp, task, n_eval=40, num_samples=1, seed=0)
        assert res_one.score == pytest.approx(res_many.score, abs=0.15)


class TestSpecFiles:
    def test_task_round_trip(self, tmp_path):
        task = ToyTaskSpec.two_way_default(eos_floor=0.01, gamma=0.4, seed=5)
        path = tmp_path / "task.json"
        task.save(path)
        assert ToyTaskSpec.load(path) == task

    def test_distortion_round_trip(self, tmp_path):
        spec = DistortionSpec(temperature=0.5, eos_bias=2.0)
        path = tmp_path / "distort.json"
        spec.save(path)
        assert DistortionSpec.load(path) == spec

    @pytest.mark.parametrize("spec, payload, message", [
        (ToyTaskSpec, "task", "expected a JSON object"),
        (ToyTaskSpec, {"source_vocab_size": 3}, "missing field 'target_vocab_size'"),
        (ToyTaskSpec, {**ToyTaskSpec.two_way_default().to_payload(), "max_len": "8"}, "field 'max_len' must be an integer"),
        (ToyTaskSpec, {**ToyTaskSpec.two_way_default().to_payload(), "gamma": 10**400}, "field 'gamma' must be a finite"),
        (DistortionSpec, None, "expected a JSON object"),
        (DistortionSpec, {"eos_bias": False}, "field 'eos_bias' must be a finite number"),
    ])
    def test_malformed_payload_names_the_field(self, spec, payload, message):
        with pytest.raises(SeqcalError, match=message):
            spec.from_payload(payload)

    def test_sample_pair_lengths_within_range(self, rng):
        task = ToyTaskSpec.two_way_default()
        for _ in range(20):
            source, reference = _draw_pairs(task, [rng])[0]
            assert task.min_len <= len(source) <= task.max_len
            assert len(reference) == len(source) + 1
            assert reference[-1] == task.eos_id
