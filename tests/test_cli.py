import json
import shlex
import warnings
from pathlib import Path

import pytest

from seqcal.cli import build_parser, main
from seqcal.errors import ValidationError
from seqcal.features import enrich_batch
from seqcal.metrics import PartitionSpec, partitioned_metric
from seqcal.records import BinningConfig, read_log_file, write_log_file
from seqcal.recalibrate import (
    SingleTemperature,
    TrainConfig,
    fit_calibrator,
    initial_params,
    load_params,
    recalibrate_log,
    save_params,
)
from seqcal.toybench import DistortionSpec, ToyTaskSpec, build_true_model, emit_log_batch

from conftest import split_lines

APPENDIX_LINES = [
    '{"seq_id": "p1", "t": 1, "vocab_size": 3, "eos_id": 2, "gold_id": 0, '
    '"entries": [[0, 0.4], [1, 0.1], [2, 0.5]], "rest_mass": 0.0}',
    '{"seq_id": "p2", "t": 1, "vocab_size": 3, "eos_id": 2, "gold_id": 0, '
    '"entries": [[0, 0.0], [1, 0.5], [2, 0.5]], "rest_mass": 0.0}',
]


@pytest.fixture
def appendix_log(tmp_path):
    path = tmp_path / "appendix.jsonl"
    path.write_text("\n".join(APPENDIX_LINES) + "\n")
    return path


@pytest.fixture
def small_task(tmp_path):
    path = tmp_path / "task.json"
    ToyTaskSpec.two_way_default(min_len=3, max_len=4, seed=1).save(path)
    return path


def write_distortion(tmp_path, **kwargs):
    path = tmp_path / "distort.json"
    DistortionSpec(**kwargs).save(path)
    return path


class TestStats:
    def test_weighted_report_on_worked_example(self, tmp_path, appendix_log, capsys):
        out = tmp_path / "report.json"
        rc = main(["stats", "--logs", str(appendix_log), "--bins", "10", "--weighted", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "weighted_ece"
        assert payload["score"] == pytest.approx(0.5, abs=1e-12)
        assert payload["ece"] == pytest.approx(0.5, abs=1e-12)
        assert len(payload["bins"]) == 10
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "bin_lo,bin_hi,mass,avg_confidence,avg_accuracy"
        assert len(csv_lines) == 11
        assert "weighted_ece=0.5" in capsys.readouterr().out

    def test_partition_report(self, tmp_path, appendix_log):
        out = tmp_path / "parts.json"
        rc = main(["stats", "--logs", str(appendix_log), "--bins", "10",
                   "--partition", "eos", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload["groups"]) == {"eos", "rest"}
        assert payload["groups"]["eos"]["count"] + payload["groups"]["rest"]["count"] == 2

    def test_headtail_partition(self, tmp_path, appendix_log):
        out = tmp_path / "ht.json"
        rc = main(["stats", "--logs", str(appendix_log), "--bins", "10",
                   "--partition", "headtail:0.2,0.45", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["threshold"] for r in rows] == [0.2, 0.45]

    def test_missing_out_is_usage_error(self, appendix_log):
        assert main(["stats", "--logs", str(appendix_log), "--bins", "10"]) == 1

    def test_missing_log_file_is_data_error(self, tmp_path):
        rc = main(["stats", "--logs", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_malformed_log_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["stats", "--logs", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    def test_unknown_flag_is_usage_error_with_help(self, appendix_log, capsys):
        rc = main(["stats", "--logs", str(appendix_log), "--frobnicate"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestToyPipeline:
    def test_gen_fit_apply_stats_roundtrip(self, tmp_path, small_task):
        logs = tmp_path / "logs.jsonl"
        distortion = write_distortion(tmp_path, temperature=0.5)
        rc = main(["toy", "gen", "--spec", str(small_task), "--n", "2500",
                   "--distort", str(distortion), "--logs-out", str(logs)])
        assert rc == 0
        count = len(read_log_file(logs))  # read_log_file rejects a bad line
        assert count > 0

        params = tmp_path / "single.json"
        rc = main(["fit", "--logs", str(logs), "--mode", "single", "--params-out", str(params)])
        assert rc == 0
        loaded = load_params(params)
        assert isinstance(loaded, SingleTemperature)
        assert 1.0 / loaded.temperature == pytest.approx(0.5, rel=0.05)

        recal = tmp_path / "recal.jsonl"
        rc = main(["apply", "--logs", str(logs), "--params", str(params), "--logs-out", str(recal)])
        assert rc == 0
        assert len(read_log_file(recal)) == count

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        assert main(["stats", "--logs", str(logs), "--weighted", "--out", str(before)]) == 0
        assert main(["stats", "--logs", str(recal), "--weighted", "--out", str(after)]) == 0
        assert (
            json.loads(after.read_text())["score"] < json.loads(before.read_text())["score"]
        )

    def test_variable_fit_writes_versioned_params(self, tmp_path, small_task):
        logs = tmp_path / "logs.jsonl"
        distortion = write_distortion(tmp_path, temperature=0.5)
        main(["toy", "gen", "--spec", str(small_task), "--n", "150",
              "--distort", str(distortion), "--logs-out", str(logs)])
        params = tmp_path / "var.json"
        rc = main(["fit", "--logs", str(logs), "--mode", "variable", "--params-out", str(params), "--seed", "0"])
        assert rc == 0
        payload = json.loads(params.read_text())
        assert payload["version"] == "seqcal-params-v1"
        assert payload["mode"] == "variable"
        assert len(payload["g_net"]) == 3 and len(payload["h_bias"]) == 3

    def test_seed_makes_outputs_byte_identical(self, tmp_path, small_task):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            rc = main(["toy", "gen", "--spec", str(small_task), "--n", "40",
                       "--logs-out", str(target), "--seed", "11"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, small_task, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("SEQCAL_SEED", "11")
        rc = main(["toy", "gen", "--spec", str(small_task), "--n", "40", "--logs-out", str(a)])
        assert rc == 0
        monkeypatch.delenv("SEQCAL_SEED")
        rc = main(["toy", "gen", "--spec", str(small_task), "--n", "40", "--logs-out", str(b), "--seed", "11"])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_beamsweep_report(self, tmp_path, small_task):
        out = tmp_path / "sweep.json"
        distortion = write_distortion(tmp_path, temperature=1.0, eos_bias=0.0)
        rc = main(["toy", "beamsweep", "--spec", str(small_task), "--distort", str(distortion),
                   "--beams", "1,2", "--out", str(out), "--seed", "3"])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["beam_width"] for r in rows] == [1, 2]
        assert rows[1]["mean_log_score"] >= rows[0]["mean_log_score"] - 1e-9


class TestSeqcalCommand:
    def test_experiment_report(self, tmp_path, small_task):
        model_spec = tmp_path / "model.json"
        model_spec.write_text(json.dumps({"distort": {"temperature": 0.5, "eos_bias": 0.0}}))
        out = tmp_path / "seq.json"
        rc = main(["seqcal", "--task", str(small_task), "--model", str(model_spec),
                   "--samples", "20", "--n", "25", "--out", str(out), "--seed", "2"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "structured_ece"
        assert len(payload["rows"]) == 25
        for row in payload["rows"]:
            assert set(row) == {"seq_id", "expected_bleu", "actual_bleu"}
        assert 0.0 <= payload["score"] <= 1.0

    def test_calibrated_model_spec(self, tmp_path, small_task):
        logs = tmp_path / "logs.jsonl"
        distortion = write_distortion(tmp_path, temperature=0.5)
        main(["toy", "gen", "--spec", str(small_task), "--n", "400",
              "--distort", str(distortion), "--logs-out", str(logs)])
        params = tmp_path / "single.json"
        main(["fit", "--logs", str(logs), "--mode", "single", "--params-out", str(params)])
        model_spec = tmp_path / "model.json"
        model_spec.write_text(json.dumps({
            "distort": {"temperature": 0.5, "eos_bias": 0.0},
            "params": str(params),
        }))
        out = tmp_path / "seq.json"
        rc = main(["seqcal", "--task", str(small_task), "--model", str(model_spec),
                   "--samples", "10", "--n", "10", "--out", str(out), "--seed", "2"])
        assert rc == 0
        assert json.loads(out.read_text())["metric"] == "structured_ece"


class TestApplyVariable:
    def test_apply_variable_params_revalidates(self, tmp_path, small_task):
        logs = tmp_path / "logs.jsonl"
        distortion = write_distortion(tmp_path, temperature=0.5)
        main(["toy", "gen", "--spec", str(small_task), "--n", "120",
              "--distort", str(distortion), "--logs-out", str(logs)])
        params = tmp_path / "var.json"
        main(["fit", "--logs", str(logs), "--mode", "variable", "--params-out", str(params), "--seed", "0"])
        recal = tmp_path / "recal.jsonl"
        rc = main(["apply", "--logs", str(logs), "--params", str(params), "--logs-out", str(recal)])
        assert rc == 0
        records = read_log_file(recal)
        assert len(records) == len(read_log_file(logs))

    def test_saturating_params_apply_without_warnings(self, tmp_path, small_task, capsys):
        """Finite net weights of 1e200 overflow the nets to inf, which
        saturates their sigmoids; apply says nothing and writes a valid log."""
        logs = tmp_path / "logs.jsonl"
        assert main(["toy", "gen", "--spec", str(small_task), "--n", "20", "--logs-out", str(logs)]) == 0
        big = [1e200] * 3
        net, bias = [[[1e200]] * 3, [big] * 3, [big]], [big, big, [1e200]]
        params = tmp_path / "big.json"
        params.write_text(json.dumps({"version": "seqcal-params-v1", "mode": "variable", "w1": 1.0, "w2": 0.35,
                                      "plus_one": False, "g_net": net, "g_bias": bias, "h_net": net, "h_bias": bias}))
        capsys.readouterr()
        recal = tmp_path / "recal.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["apply", "--logs", str(logs), "--params", str(params), "--logs-out", str(recal)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert len(read_log_file(recal)) == len(read_log_file(logs))


class TestParamsFileErrors:
    """A bad params file is a data error (exit 2) naming the field."""

    def run_apply(self, tmp_path, appendix_log, payload):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(payload))
        return main(["apply", "--logs", str(appendix_log), "--params", str(params),
                     "--logs-out", str(tmp_path / "out.jsonl")])

    def test_missing_temperature(self, tmp_path, appendix_log, capsys):
        payload = {"version": "seqcal-params-v1", "mode": "single"}
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "missing field 'temperature'" in capsys.readouterr().err

    def test_nan_temperature(self, tmp_path, appendix_log, capsys):
        payload = {"version": "seqcal-params-v1", "mode": "single", "temperature": float("nan")}
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "field 'temperature' must be a finite number" in capsys.readouterr().err

    def test_non_positive_temperature(self, tmp_path, appendix_log, capsys):
        payload = {"version": "seqcal-params-v1", "mode": "single", "temperature": 0.0}
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "field 'temperature' must be positive" in capsys.readouterr().err

    def test_missing_variable_field(self, tmp_path, appendix_log, capsys):
        payload = {"version": "seqcal-params-v1", "mode": "variable", "w1": 1.0, "w2": 0.35}
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "missing field 'g_net'" in capsys.readouterr().err

    def test_non_finite_weight(self, tmp_path, appendix_log, capsys):
        zeros3 = [0.0, 0.0, 0.0]
        net = [[[0.0]] * 3, [zeros3] * 3, [zeros3]]
        bias = [zeros3, zeros3, [0.0]]
        payload = {
            "version": "seqcal-params-v1", "mode": "variable", "w1": 1.0, "w2": 0.35,
            "plus_one": False, "g_net": net, "g_bias": bias,
            "h_net": [[[0.0]] * 3, [zeros3, [0.0, float("inf"), 0.0], zeros3], [zeros3]], "h_bias": bias,
        }
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "'h_net'/'h_bias' hold a non-finite weight" in capsys.readouterr().err

    def test_non_finite_w1(self, tmp_path, appendix_log, capsys):
        payload = {"version": "seqcal-params-v1", "mode": "variable", "w1": float("-inf"), "w2": 0.35}
        assert self.run_apply(tmp_path, appendix_log, payload) == 2
        assert "field 'w1' must be a finite number" in capsys.readouterr().err

    ZEROS = [0.0, 0.0, 0.0]
    NET, BIAS = [[[0.0]] * 3, [ZEROS] * 3, [ZEROS]], [ZEROS, ZEROS, [0.0]]
    VARIABLE = {"version": "seqcal-params-v1", "mode": "variable", "w1": 1.0, "w2": 0.35, "plus_one": False,
                "g_net": NET, "g_bias": BIAS, "h_net": NET, "h_bias": BIAS}
    SINGLE = {"version": "seqcal-params-v1", "mode": "single", "temperature": 0.5}

    @pytest.fixture
    def toy_log(self, tmp_path, small_task):
        path = tmp_path / "toy.jsonl"
        assert main(["toy", "gen", "--spec", str(small_task), "--n", "3", "--logs-out", str(path)]) == 0
        return path

    def assert_error_starts_with_path(self, capsys, path, *parts):
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        for part in parts:
            assert part in err, err

    @pytest.mark.parametrize("payload", [VARIABLE, SINGLE])
    def test_well_typed_params_apply(self, tmp_path, toy_log, payload):
        assert self.run_apply(tmp_path, toy_log, payload) == 0

    @pytest.mark.parametrize("payload, name", [
        ({**VARIABLE, "plus_one": "false"}, "plus_one"),
        ({**VARIABLE, "plus_one": 1}, "plus_one"),
        ({**SINGLE, "temperature": "0.5"}, "temperature"),
        ({**SINGLE, "temperature": True}, "temperature"),
        ({**VARIABLE, "w1": "1.0"}, "w1"),
        ({**VARIABLE, "g_net": [[["0.0"]] * 3, [ZEROS] * 3, [ZEROS]]}, "g_net"),
        ({**VARIABLE, "h_bias": [ZEROS, [0.0, True, 0.0], [0.0]]}, "h_bias"),
    ], ids=["plus_one-string", "plus_one-int", "temperature-string", "temperature-bool", "w1-string",
            "g_net-string-leaf", "h_bias-bool-leaf"])
    def test_json_types_are_strict(self, tmp_path, toy_log, capsys, payload, name):
        assert self.run_apply(tmp_path, toy_log, payload) == 2
        self.assert_error_starts_with_path(capsys, tmp_path / "params.json", f"'{name}'")

    @pytest.mark.parametrize("payload", [
        {**VARIABLE, "g_net": [[[0.0, 0.0]] + [[0.0]] * 2, [ZEROS] * 3, [ZEROS]]},
        {**VARIABLE, "g_net": NET + [[ZEROS]]},
        {**VARIABLE, "g_bias": BIAS + [[0.0]]},
    ], ids=["extra-weight-in-a-row", "extra-weight-layer", "extra-bias-layer"])
    def test_a_net_must_nest_as_fit_writes_it(self, tmp_path, toy_log, capsys, payload):
        assert self.run_apply(tmp_path, toy_log, payload) == 2
        self.assert_error_starts_with_path(capsys, tmp_path / "params.json", "'g_net'", "'g_bias'")

    NOT_PARAMS = [("nope", "Expecting value"),
                  ('{"version": "seqcal-params-v1", "mode": "single"}', "missing field 'temperature'")]

    @pytest.mark.parametrize("text, message", NOT_PARAMS, ids=["not-json", "missing-field"])
    def test_apply_error_names_the_params_file(self, tmp_path, toy_log, capsys, text, message):
        params = tmp_path / "bad.json"
        params.write_text(text)
        assert main(["apply", "--logs", str(toy_log), "--params", str(params),
                     "--logs-out", str(tmp_path / "out.jsonl")]) == 2
        self.assert_error_starts_with_path(capsys, params, message)

    @pytest.mark.parametrize("text, message", NOT_PARAMS, ids=["not-json", "missing-field"])
    def test_model_spec_error_names_the_params_file(self, tmp_path, small_task, capsys, text, message):
        params, model = tmp_path / "bad.json", tmp_path / "model.json"
        params.write_text(text)
        model.write_text(json.dumps({"params": str(params)}))
        assert main(["seqcal", "--task", str(small_task), "--model", str(model),
                     "--n", "2", "--out", str(tmp_path / "seq.json")]) == 2
        self.assert_error_starts_with_path(capsys, params, message)


class TestSpecFileErrors:
    """A malformed task, distortion or model spec file is a data error
    (exit 2) on one line naming the file and the field."""

    TASK = ToyTaskSpec.two_way_default(min_len=3, max_len=4, seed=1).to_payload()

    def run_gen(self, tmp_path, task=None, distortion=None):
        argv = ["toy", "gen", "--n", "2", "--logs-out", str(tmp_path / "logs.jsonl")]
        for flag, payload in (("--spec", self.TASK if task is None else task), ("--distort", distortion)):
            if payload is not None:
                path = tmp_path / f"{flag[2:]}.json"
                path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
                argv += [flag, str(path)]
        return main(argv)

    def assert_one_error_line(self, capsys, *parts):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for part in parts:
            assert part in err, err

    @pytest.mark.parametrize("task, message", [
        ({"source_vocab_size": 3}, "missing field 'target_vocab_size'"),
        ([1, 2], "expected a JSON object"),
        ({**TASK, "gamma": "high"}, "field 'gamma' must be a finite number"),
        ({**TASK, "min_len": 3.5}, "field 'min_len' must be an integer"),
        ({**TASK, "seed": True}, "field 'seed' must be an integer"),
        ({**TASK, "emissions": 5}, "field 'emissions'"),
        ({**TASK, "emissions": [[0.5, None]]}, "field 'emissions'"),
        ({**TASK, "emissions": [[float("nan")] * 21] * 20}, "field 'emissions'"),
        ("{not json", "Expecting property name"),
    ])
    def test_task_spec(self, tmp_path, capsys, task, message):
        assert self.run_gen(tmp_path, task=task) == 2
        self.assert_one_error_line(capsys, "spec.json", message)

    @pytest.mark.parametrize("distortion, message", [
        ([0.5], "expected a JSON object"),
        ({"temperature": "hot"}, "field 'temperature' must be a finite number"),
        ({"temperature": 0.5, "eos_bias": None}, "field 'eos_bias' must be a finite number"),
        ('{"temperature": NaN}', "field 'temperature' must be a finite number"),
        ('{"eos_bias": Infinity}', "field 'eos_bias' must be a finite number"),
    ])
    def test_distortion_spec(self, tmp_path, capsys, distortion, message):
        assert self.run_gen(tmp_path, distortion=distortion) == 2
        self.assert_one_error_line(capsys, "distort.json", message)

    @pytest.mark.parametrize("model, message", [
        ([], "expected a JSON object"),
        ({"distort": 5}, "field 'distort': expected a JSON object"),
        ({"distort": {"temperature": [0.5]}}, "field 'distort': field 'temperature' must be a finite number"),
        ({"params": 3}, "field 'params' must be a file path"),
    ])
    def test_model_spec(self, tmp_path, small_task, capsys, model, message):
        model_spec = tmp_path / "model.json"
        model_spec.write_text(json.dumps(model))
        rc = main(["seqcal", "--task", str(small_task), "--model", str(model_spec),
                   "--n", "2", "--out", str(tmp_path / "seq.json")])
        assert rc == 2
        self.assert_one_error_line(capsys, "model.json", message)

    def test_defaults_still_fill_a_partial_distortion(self, tmp_path):
        assert self.run_gen(tmp_path, distortion={"temperature": 2}) == 0


class TestSequenceCount:
    """A negative ``--n`` is a data error naming the count; zero sequences
    give an empty log."""

    def test_gen(self, tmp_path, small_task, capsys):
        logs = tmp_path / "logs.jsonl"
        argv = ["toy", "gen", "--spec", str(small_task), "--logs-out", str(logs)]
        assert main([*argv, "--n", "-3"]) == 2
        assert "must be non-negative, got -3" in capsys.readouterr().err
        assert not logs.exists()
        assert main([*argv, "--n", "0"]) == 0
        assert logs.read_bytes() == b""

    def test_seqcal(self, tmp_path, small_task, capsys):
        model_spec = tmp_path / "model.json"
        model_spec.write_text(json.dumps({"distort": {"temperature": 0.5}}))
        rc = main(["seqcal", "--task", str(small_task), "--model", str(model_spec),
                   "--n", "-3", "--out", str(tmp_path / "seq.json")])
        assert rc == 2
        assert "must be non-negative, got -3" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative seed, by ``--seed`` or ``$SEQCAL_SEED``, is a data error
    (exit 2) that names the seed, and writes no output."""

    @pytest.fixture(params=["option", "environment"])
    def seed_args(self, request, monkeypatch):
        if request.param == "option":
            return ["--seed", "-1"]
        monkeypatch.setenv("SEQCAL_SEED", "-1")
        return []

    def test_gen(self, tmp_path, small_task, capsys, seed_args):
        logs = tmp_path / "logs.jsonl"
        assert main(["toy", "gen", "--spec", str(small_task), "--n", "5", "--logs-out", str(logs), *seed_args]) == 2
        assert "error: a seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not logs.exists()

    def test_variable_fit(self, tmp_path, small_task, capsys, seed_args):
        logs, params = tmp_path / "logs.jsonl", tmp_path / "var.json"
        task = ToyTaskSpec.load(small_task)
        write_log_file(logs, emit_log_batch(build_true_model(task), task, 20, seed=3))
        assert main(["fit", "--logs", str(logs), "--mode", "variable", "--params-out", str(params), *seed_args]) == 2
        assert "error: a seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not params.exists()


@pytest.mark.parametrize("partition, message", [
    ("entropy:nan", "entropy threshold must be non-negative, got nan"),
    ("entropy:-0.5", "entropy threshold must be non-negative, got -0.5"),
    ("entropy:inf", "entropy threshold must be finite, got inf"),
    ("token:-5", "token id must be non-negative, got -5"),
    ("token:21", "token id 21 is in no row's vocabulary: the log's largest vocab_size is 21"),
])
def test_a_partition_that_cannot_split_is_a_data_error(tmp_path, small_task, capsys, partition, message):
    logs, out = tmp_path / "logs.jsonl", tmp_path / "p.json"
    assert main(["toy", "gen", "--spec", str(small_task), "--n", "5", "--logs-out", str(logs)]) == 0
    assert main(["stats", "--logs", str(logs), "--partition", partition, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options", [[], ["--weighted"], ["--partition", "eos"], ["--partition", "token:0"],
                                     ["--partition", "entropy:0.5"], ["--partition", "headtail:0.5"]])
def test_an_empty_log_is_a_data_error_in_every_stats_mode(tmp_path, capsys, options):
    logs, out = tmp_path / "empty.jsonl", tmp_path / "r.json"
    logs.write_text("\n")
    assert main(["stats", "--logs", str(logs), *options, "--out", str(out)]) == 2
    assert "metric undefined on an empty record stream" in capsys.readouterr().err
    assert not out.exists()


def test_a_partition_without_thresholds_is_a_usage_error(tmp_path, appendix_log, capsys):
    out = tmp_path / "p.json"
    assert main(["stats", "--logs", str(appendix_log), "--partition", "headtail:", "--out", str(out)]) == 1
    assert "'headtail:': no thresholds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0", "10001", "100000000"])
def test_a_bin_count_out_of_range_is_a_data_error(tmp_path, appendix_log, capsys, bins):
    out = tmp_path / "r.json"
    assert main(["stats", "--logs", str(appendix_log), "--bins", bins, "--out", str(out)]) == 2
    assert f"num_bins: must be in 1..10000, got {bins}" in capsys.readouterr().err
    assert not out.exists()


class TestUsageErrors:
    """A malformed number in an option or in $SEQCAL_SEED is a usage error (exit 1)."""

    @pytest.mark.parametrize("partition", ["entropy:abc", "token:1.5", "headtail:0.2,x"])
    def test_partition_number(self, tmp_path, appendix_log, capsys, partition):
        rc = main(["stats", "--logs", str(appendix_log), "--partition", partition, "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert partition in capsys.readouterr().err

    def test_env_seed(self, tmp_path, small_task, monkeypatch, capsys):
        monkeypatch.setenv("SEQCAL_SEED", "eleven")
        rc = main(["toy", "gen", "--spec", str(small_task), "--n", "2", "--logs-out", str(tmp_path / "l.jsonl")])
        assert rc == 1
        assert "SEQCAL_SEED" in capsys.readouterr().err

    def test_delta_is_not_an_option(self, tmp_path, appendix_log):
        assert main(["fit", "--logs", str(appendix_log), "--mode", "variable", "--delta", "0.5",
                     "--params-out", str(tmp_path / "p.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["fit", "--mode", "single", "--params-out", "p.json", "--out", "x.json"],
        ["apply", "--params", "p.json", "--logs-out", "o.jsonl", "--out", "x.json"],
        ["apply", "--params", "p.json", "--logs-out", "o.jsonl", "--seed", "3"],
        ["stats", "--out", "r.json", "--seed", "1"],
        ["stats"],
    ])
    def test_options_no_command_reads(self, tmp_path, appendix_log, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--logs", str(appendix_log), *argv[1:]]) == 1

    @pytest.mark.parametrize("beams", [",", ",,", ""])
    def test_a_sweep_without_beam_widths(self, tmp_path, small_task, capsys, beams):
        out = tmp_path / "sweep.json"
        assert main(["toy", "beamsweep", "--spec", str(small_task), "--beams", beams, "--out", str(out)]) == 1
        assert f"--beams {beams!r}: no beam widths" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_takes_no_out(self, tmp_path, small_task, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["toy", "gen", "--spec", str(small_task), "--n", "2", "--logs-out", "l.jsonl",
                     "--out", "x.json"]) == 1


def readme_commands():
    """The ``seqcal ...`` lines of README.md's fenced code blocks, with their
    backslash continuations joined."""
    commands, in_block, pending = [], False, ""
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.strip().startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        pending += line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        if pending.startswith("seqcal "):
            commands.append(pending)
        pending = ""
    return commands


def test_readme_shows_every_command():
    assert {shlex.split(c)[1] for c in readme_commands()} == {"stats", "fit", "apply", "seqcal", "toy"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_example_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])


def test_fit_and_apply_derive_the_stored_features(tmp_path, small_task):
    """The attention-only log of ``toy gen`` fits to the same params as the
    log that also stores cum_attention and features, and applies to the same
    distributions; each applied log keeps its own input's fields."""
    bare = tmp_path / "bare.jsonl"
    distortion = write_distortion(tmp_path, temperature=0.6, eos_bias=1.0)
    assert main(["toy", "gen", "--spec", str(small_task), "--n", "60", "--distort", str(distortion),
                 "--seed", "4", "--logs-out", str(bare)]) == 0
    stored = tmp_path / "stored.jsonl"
    write_log_file(stored, enrich_batch(read_log_file(bare)))
    assert all("features" not in r and "cum_attention" not in r and "attention" in r for r in split_lines(bare)[1])
    assert all("features" in r and "cum_attention" in r for r in split_lines(stored)[1])
    params, applied = [], []
    for log in (stored, bare):
        fitted, out = tmp_path / f"{log.stem}.params.json", tmp_path / f"{log.stem}.out.jsonl"
        assert main(["fit", "--logs", str(log), "--mode", "variable", "--seed", "1", "--params-out", str(fitted)]) == 0
        assert main(["apply", "--logs", str(log), "--params", str(fitted), "--logs-out", str(out)]) == 0
        params.append(fitted.read_bytes())
        distributions, fields = split_lines(out)
        assert fields == split_lines(log)[1]
        applied.append(distributions)
    assert params[0] == params[1]
    assert applied[0] == applied[1]


# one sequence whose steps store attention only, no features
PROBE_LINES = [
    '{"seq_id":"a","t":1,"vocab_size":3,"eos_id":2,"gold_id":0,'
    '"entries":[[0,0.6],[1,0.3],[2,0.1]],"rest_mass":0.0,"attention":[0.7,0.3]}',
    '{"seq_id":"a","t":2,"vocab_size":3,"eos_id":2,"gold_id":2,'
    '"entries":[[0,0.2],[1,0.3],[2,0.5]],"rest_mass":0.0,"attention":[0.2,0.8]}',
]


class TestLibraryMatchesCliWithoutFeatures:
    """The library functions derive missing features by the rule the CLI uses."""

    @pytest.fixture
    def probe_log(self, tmp_path):
        path = tmp_path / "probe.jsonl"
        path.write_text("\n".join(PROBE_LINES) + "\n")
        return path

    def test_fit(self, tmp_path, probe_log):
        cli_params, lib_params = tmp_path / "cli.json", tmp_path / "lib.json"
        assert main(["fit", "--logs", str(probe_log), "--mode", "variable", "--seed", "3",
                     "--params-out", str(cli_params)]) == 0
        save_params(lib_params, fit_calibrator(read_log_file(probe_log), TrainConfig(seed=3)))
        assert lib_params.read_bytes() == cli_params.read_bytes()

    def test_apply(self, tmp_path, probe_log):
        params, cli_out, lib_out = tmp_path / "params.json", tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
        save_params(params, fit_calibrator(read_log_file(probe_log), TrainConfig(seed=3)))
        assert main(["apply", "--logs", str(probe_log), "--params", str(params), "--logs-out", str(cli_out)]) == 0
        write_log_file(lib_out, recalibrate_log(read_log_file(probe_log), load_params(params)))
        assert lib_out.read_bytes() == cli_out.read_bytes()

    def test_entropy_partition(self, tmp_path, probe_log):
        out = tmp_path / "parts.json"
        assert main(["stats", "--logs", str(probe_log), "--partition", "entropy:0.5", "--out", str(out)]) == 0
        groups = partitioned_metric(read_log_file(probe_log), PartitionSpec.entropy(0.5), BinningConfig(20))
        assert {label: vars(g) for label, g in groups.items()} == {
            label: {"ece": g["ece"], "weighted_ece": g["weighted_ece"], "count": g["count"]}
            for label, g in json.loads(out.read_text())["groups"].items()
        }

    def test_steps_out_of_order_rejected(self, tmp_path):
        swapped = tmp_path / "swapped.jsonl"
        swapped.write_text("\n".join(reversed(PROBE_LINES)) + "\n")
        batch = read_log_file(swapped)
        calls = (
            lambda: fit_calibrator(batch, TrainConfig(max_epochs=2)),
            lambda: recalibrate_log(batch, initial_params(TrainConfig(), plus_one=False)),
            lambda: partitioned_metric(batch, PartitionSpec.entropy(0.5)),
        )
        for call in calls:
            with pytest.raises(ValidationError) as caught:
                call()
            assert caught.value.field == "t"


def test_model_spec_params_path_is_relative_to_the_spec(tmp_path, small_task, monkeypatch):
    """A relative "params" path names the file beside the spec, not one in
    the working directory."""
    sub = tmp_path / "sub"
    sub.mkdir()
    save_params(sub / "var.json", SingleTemperature(temperature=1.0))
    save_params(tmp_path / "var.json", SingleTemperature(temperature=8.0))  # a decoy
    (sub / "model.json").write_text(json.dumps({"params": "var.json"}))
    (sub / "absolute.json").write_text(json.dumps({"params": str(sub / "var.json")}))
    monkeypatch.chdir(tmp_path)
    reports = []
    for spec in ("model.json", "absolute.json"):
        out = tmp_path / f"{spec}.out.json"
        assert main(["seqcal", "--task", str(small_task), "--model", f"sub/{spec}",
                     "--samples", "5", "--n", "8", "--seed", "2", "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
