"""The columnar log path: parse-once ``LogBatch``, column validation and
the one-pass feature enrichment.

Three parts, each checked against the per-record code it replaced:

* an error-parity corpus: every check of ``validate_record`` and every
  kind of parse error, alone and several to a file, must raise the same
  exception class, field and line as the per-record reader did;
* a seeded differential test of ``enrich_batch`` against a reference copy
  of the per-step ``enrich`` loop, kept below;
* the CLI outputs of both benchmark workloads' inputs at seed 7 must equal
  those of the per-record code (sha256 digests recorded from commit
  7054b4a with numpy 2.4 on x86-64). The outputs downstream of the
  variable fit were re-recorded when its nets went hidden-major, which
  changed the summation order of their matrix products; no number in them
  moved by more than 5e-16. The five log digests were re-recorded when
  ``toy gen`` and ``apply`` stopped writing the derived cum_attention and
  features: each new log is the earlier one with those two keys dropped.
  A log in the earlier format still gives the same fits and reports.
"""

import hashlib
import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqcal import records, recalibrate
from seqcal.cli import main
from seqcal.errors import FeatureError, MetricError, ParseError, ValidationError
from seqcal.features import attention_entropy, coverage, enrich, enrich_batch
from seqcal.metrics import nll
from seqcal.records import (
    PROB_ATOL,
    LogBatch,
    SequenceRecord,
    StepFeatures,
    densify,
    parse_log_line,
    read_log_file,
    write_log_file,
)
from seqcal.toybench import DistortionSpec, ToyTaskSpec, build_true_model, distort, emit_log_batch

from conftest import make_record, random_simplex, split_lines

# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------

BASE = {
    "seq_id": "s1", "t": 1, "vocab_size": 3, "eos_id": 2, "gold_id": 0,
    "entries": [[0, 0.4], [1, 0.1], [2, 0.5]], "rest_mass": 0.0,
    "attention": [0.6, 0.4], "cum_attention": [0.6, 0.4],
    "features": {"entropy": 0.5, "coverage": 0.5},
}
DROP = object()


def line(**changes) -> str:
    payload = {k: v for k, v in dict(BASE, **changes).items() if v is not DROP}
    return json.dumps(payload)


GOOD = line()
# name -> (bad line, error class, field); the field is None for a ParseError
BAD = {
    "vocab_size": (line(vocab_size=0), ValidationError, "vocab_size"),
    "t": (line(t=0), ValidationError, "t"),
    "eos_id": (line(eos_id=3), ValidationError, "eos_id"),
    "gold_id": (line(gold_id=-1), ValidationError, "gold_id"),
    "too_many_entries": (line(vocab_size=2, eos_id=1), ValidationError, "entries"),
    "id_range": (line(entries=[[0, 0.4], [5, 0.1], [2, 0.5]]), ValidationError, "entries"),
    "id_negative": (line(entries=[[0, 0.4], [-1, 0.1], [2, 0.5]]), ValidationError, "entries"),
    "duplicate": (line(entries=[[0, 0.4], [0, 0.1], [2, 0.5]]), ValidationError, "entries"),
    "prob_high": (line(entries=[[0, 1.5], [1, 0.1], [2, 0.5]]), ValidationError, "entries"),
    "prob_negative": (line(entries=[[0, -0.4], [1, 0.9], [2, 0.5]]), ValidationError, "entries"),
    "prob_nan": (line(entries=[[0, math.nan], [1, 0.1], [2, 0.5]]), ValidationError, "entries"),
    "rest_range": (line(rest_mass=1.5), ValidationError, "rest_mass"),
    "rest_nan": (line(rest_mass=math.nan), ValidationError, "rest_mass"),
    "sum_short": (line(entries=[[0, 0.4], [1, 0.1], [2, 0.43]]), ValidationError, "entries"),
    "sum_long": (line(entries=[[0, 0.4], [1, 0.1]], rest_mass=0.6), ValidationError, "entries"),
    "tail_room": (line(entries=[[0, 0.4], [1, 0.1], [2, 0.4999995]], rest_mass=5e-7), ValidationError, "rest_mass"),
    "att_empty": (line(attention=[], cum_attention=DROP), ValidationError, "attention"),
    "att_negative": (line(attention=[1.2, -0.2], cum_attention=DROP), ValidationError, "attention"),
    "att_inf": (line(attention=[math.inf, 0.4], cum_attention=DROP), ValidationError, "attention"),
    "att_sum": (line(attention=[0.5, 0.4], cum_attention=DROP), ValidationError, "attention"),
    "att_sum_edge": (line(attention=[0.5, 0.5000011], cum_attention=DROP), ValidationError, "attention"),
    "cum_negative": (line(cum_attention=[0.6, -0.4]), ValidationError, "cum_attention"),
    "cum_nan": (line(attention=DROP, cum_attention=[math.nan]), ValidationError, "cum_attention"),
    "cum_length": (line(cum_attention=[0.6, 0.4, 0.1]), ValidationError, "cum_attention"),
    "cum_below": (line(cum_attention=[0.6, 0.3]), ValidationError, "cum_attention"),
    "entropy_negative": (line(features={"entropy": -1.0, "coverage": 0.5}), ValidationError, "features"),
    "entropy_inf": (line(features={"entropy": math.inf, "coverage": 0.5}), ValidationError, "features"),
    "coverage_high": (line(features={"entropy": 0.5, "coverage": 1.5}), ValidationError, "features"),
    "coverage_nan": (line(features={"entropy": 0.5, "coverage": math.nan}), ValidationError, "features"),
    "json": ('{"seq_id": "x", ', ParseError, None),
    "not_object": ("[1, 2]", ParseError, None),
    "missing_gold": (line(gold_id=DROP), ParseError, None),
    "entry_triple": (line(entries=[[0, 0.4, 1], [1, 0.1], [2, 0.5]]), ParseError, None),
    "entry_single": (line(entries=[[0], [1, 0.1], [2, 0.5]]), ParseError, None),
    "t_infinity": (GOOD.replace('"t": 1', '"t": Infinity'), ParseError, None),
    "rest_null": (line(rest_mass=None), ParseError, None),
    "att_number": (line(attention=5, cum_attention=DROP), ParseError, None),
    "features_partial": (line(features={"entropy": 0.5}), ParseError, None),
    "features_list": (line(features=[0.5, 0.5]), ParseError, None),
}
# several bad lines to a file: (lines, first bad line, error class, field)
MIXED = {
    "validation_then_json": ([GOOD, BAD["sum_short"][0], GOOD, BAD["json"][0]], 2, ValidationError, "entries"),
    "json_then_validation": ([GOOD, BAD["json"][0], GOOD, BAD["sum_short"][0]], 2, ParseError, None),
    "validation_then_structure": (
        [GOOD, "", BAD["cum_below"][0], "  ", BAD["missing_gold"][0]], 3, ValidationError, "cum_attention",
    ),
    "structure_then_validation": ([GOOD, BAD["missing_gold"][0], BAD["cum_below"][0]], 2, ParseError, None),
    "two_validation": ([GOOD, "", BAD["gold_id"][0], BAD["t"][0]], 3, ValidationError, "gold_id"),
    "validation_then_bool": ([GOOD, BAD["att_sum"][0], line(t=True)], 2, ValidationError, "attention"),
    "blank_lines": (["", GOOD, "", "", BAD["duplicate"][0]], 5, ValidationError, "entries"),
}


def read_lines(tmp_path, lines):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return read_log_file(path)


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_line_raises_as_the_per_record_reader_did(tmp_path, name):
    bad, cls, fieldname = BAD[name]
    with pytest.raises((ParseError, ValidationError)) as err:
        read_lines(tmp_path, [GOOD, GOOD, bad, GOOD])
    assert type(err.value) is cls
    assert getattr(err.value, "field", None) == fieldname
    assert err.value.line_number == 3
    with pytest.raises(cls) as one:
        parse_log_line(bad, line_number=3)
    assert getattr(one.value, "field", None) == fieldname and one.value.line_number == 3


@pytest.mark.parametrize("name", sorted(MIXED))
def test_first_bad_line_of_several_wins(tmp_path, name):
    lines, first, cls, fieldname = MIXED[name]
    with pytest.raises((ParseError, ValidationError)) as err:
        read_lines(tmp_path, lines)
    assert type(err.value) is cls
    assert getattr(err.value, "field", None) == fieldname
    assert err.value.line_number == first


@pytest.mark.parametrize("name", sorted(BAD))
def test_validate_record_matches_the_column_checks(name):
    bad, cls, fieldname = BAD[name]
    if cls is ParseError:
        return
    columns = records._Columns()  # the bad line's record, unchecked
    columns.add(bad, 1)
    (record,) = columns.batch()
    with pytest.raises(ValidationError) as err:
        records.validate_record(record, line_number=7)
    assert err.value.field == fieldname and err.value.line_number == 7


COERCED = {
    "t_fraction": line(t=1.9),
    "t_integral_float": line(t=1.0),
    "vocab_fraction": line(vocab_size=3.7),
    "gold_fraction": line(gold_id=0.5),
    "entry_id_float": line(entries=[[0.9, 0.5], [1, 0.0], [2, 0.5]]),
    "t_bool": line(t=True),
    "vocab_string": line(vocab_size="3"),
    "prob_bool": line(entries=[[0, True], [1, 0.0], [2, 0.0]]),
    "prob_string": line(entries=[[0, "0.4"], [1, 0.1], [2, 0.5]]),
    "rest_string": line(rest_mass="0"),
    "attention_bool": line(attention=[True, False], cum_attention=DROP),
    "entropy_string": line(features={"entropy": "0.5", "coverage": 0.5}),
}


@pytest.mark.parametrize("name", sorted(COERCED))
def test_values_of_the_wrong_json_type_are_rejected_not_coerced(tmp_path, name):
    with pytest.raises(ParseError) as err:
        parse_log_line(COERCED[name], line_number=4)
    assert err.value.line_number == 4
    with pytest.raises(ParseError) as err:
        read_lines(tmp_path, [GOOD, COERCED[name]])
    assert err.value.line_number == 2


def test_json_integers_are_accepted_as_probabilities():
    record = parse_log_line(line(entries=[[0, 1], [1, 0], [2, 0]], rest_mass=0, attention=[1, 0],
                                 cum_attention=[1, 0], features={"entropy": 0, "coverage": 1}))
    assert record.entries == ((0, 1.0), (1, 0.0), (2, 0.0))
    assert type(record.rest_mass) is float and record.features == StepFeatures(0.0, 1.0)


def test_a_seq_id_holding_true_is_not_a_bool():
    assert parse_log_line(line(seq_id="true-false")).seq_id == "true-false"


# ---------------------------------------------------------------------------
# The batch against its records
# ---------------------------------------------------------------------------


def random_log(rng, n_seq=12):
    out = []
    for s in range(n_seq):
        source = int(rng.integers(1, 6))
        running = np.zeros(source)
        for t in range(1, int(rng.integers(1, 6)) + 1):
            vocab = int(rng.integers(2, 30))
            probs = random_simplex(rng, vocab)
            keep = rng.random(vocab) < 0.5
            keep[int(rng.integers(vocab))] = True
            alpha = random_simplex(rng, source)
            running = running + alpha
            out.append(make_record(
                {int(j): float(probs[j]) for j in np.flatnonzero(keep)}, gold=int(rng.integers(vocab)),
                seq_id=f"q{s}", t=t, vocab_size=vocab, eos_id=int(rng.integers(vocab)),
                rest_mass=float(probs[~keep].sum()),
                attention=alpha if rng.random() < 0.7 else None,
                cum_attention=tuple(running) if rng.random() < 0.5 else None,
                features=StepFeatures(float(rng.random()), float(rng.random())) if rng.random() < 0.3 else None,
            ))
    return out


def test_batch_round_trips_its_records(rng, tmp_path):
    log = random_log(rng)
    batch = LogBatch.from_records(log)
    assert list(batch) == log and batch[-1] == log[-1] and len(batch) == len(log)
    assert batch.seq_ids == [f"q{s}" for s in range(12)]
    write_log_file(tmp_path / "a.jsonl", log)
    write_log_file(tmp_path / "b.jsonl", batch)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert list(read_log_file(tmp_path / "a.jsonl")) == log


def test_nll_reads_gold_probabilities_from_the_layout(rng):
    log = random_log(rng)
    reference = -np.mean([math.log(densify(r)[r.gold_id]) for r in log])
    assert nll(log) == pytest.approx(reference, abs=1e-12)
    dead = replace(log[3], entries=tuple((i, p) for i, p in log[3].entries if i != log[3].gold_id) + (
        (log[3].gold_id, 0.0),))
    with pytest.raises(MetricError, match=rf"{dead.gold_id} has zero probability in sequence 'q\d+' step {dead.t}"):
        nll(log[:3] + [dead])


COMMANDS = [
    ["stats", "--out", "r.json"],
    ["stats", "--weighted", "--out", "r.json"],
    ["stats", "--partition", "eos", "--out", "r.json"],
    ["stats", "--partition", "token:3", "--out", "r.json"],
    ["stats", "--partition", "entropy:0.5", "--out", "r.json"],
    ["stats", "--partition", "headtail:0.2,0.7", "--out", "r.json"],
    ["fit", "--mode", "single", "--params-out", "single.json"],
    ["fit", "--mode", "variable", "--params-out", "variable.json"],
    ["apply", "--params", "single.json", "--logs-out", "out.jsonl"],
    ["apply", "--params", "variable.json", "--logs-out", "out.jsonl"],
]


def test_each_command_builds_one_pooled_layout(tmp_path, monkeypatch):
    """``fit`` builds one layout of the whole log; ``stats``, which reads a
    block of whole sequences at a time, one of each block, which all of its
    metrics share; ``apply`` one of each block of rows ``records.blocks``
    takes, which may cut a sequence."""
    task = tmp_path / "task.json"
    ToyTaskSpec.two_way_default(min_len=3, max_len=5, seed=3).save(task)
    logs = tmp_path / "logs.jsonl"
    assert main(["toy", "gen", "--spec", str(task), "--n", "20", "--seed", "1", "--logs-out", str(logs)]) == 0
    bare = tmp_path / "bare.jsonl"  # features only from attention, as entropy:H and apply then derive them
    bare.write_text("".join(json.dumps({k: v for k, v in json.loads(text).items() if k != "features"}) + "\n"
                            for text in logs.read_text().splitlines()))
    built = []
    real = records.pooled_layout
    monkeypatch.setattr(records, "pooled_layout", lambda batch: built.append(len(batch)) or real(batch))
    monkeypatch.setattr(records, "BLOCK_ROWS", 7)  # several blocks of every pass
    monkeypatch.chdir(tmp_path)
    for log in (logs, bare):
        with open(log, encoding="utf-8") as handle:
            sizes = [len(block) for block in records.read_log_blocks(handle)]
        assert len(sizes) > 1
        for argv in COMMANDS:
            if log is bare and argv[1:3] == ["--mode", "variable"]:
                continue  # a library fit needs stored features
            built.clear()
            assert main([argv[0], "--logs", str(log), *argv[1:]]) == 0, argv
            want = {"stats": sizes, "fit": [sum(sizes)], "apply": [hi - lo for lo, hi in records.blocks(sum(sizes))]}
            assert built == want[argv[0]], (log.name, argv)


# ---------------------------------------------------------------------------
# Feature enrichment: the columnar pass against the per-step loop
# ---------------------------------------------------------------------------


def reference_enrich(seq: SequenceRecord) -> SequenceRecord:
    """The per-step enrichment loop that ``enrich_batch`` replaced."""
    running = None
    prev_cum = None
    new_steps = []
    for step in seq.steps:
        attention = step.attention
        cum = np.asarray(step.cum_attention, dtype=np.float64) if step.cum_attention is not None else None
        if attention is None and cum is not None:
            base = prev_cum if prev_cum is not None else np.zeros_like(cum)
            diff = cum - base
            if np.any(diff < -PROB_ATOL):
                raise FeatureError(f"sequence {seq.seq_id!r} step {step.t}: cumulative attention decreased")
            attention = tuple(np.maximum(diff, 0.0))
        if attention is not None:
            alpha = np.asarray(attention, dtype=np.float64)
            running = alpha.copy() if running is None else running + alpha
            current_cum = cum if cum is not None else running
            feats = StepFeatures(
                entropy=attention_entropy(alpha), coverage=coverage(current_cum),
            )
            updated = step
            if step.features is None:
                updated = replace(updated, features=feats)
            if step.cum_attention is None:
                updated = replace(updated, cum_attention=tuple(float(c) for c in current_cum))
            new_steps.append(updated)
            prev_cum = np.asarray(current_cum, dtype=np.float64)
        elif step.features is not None:
            new_steps.append(step)
            prev_cum = None
        else:
            raise FeatureError(
                f"sequence {seq.seq_id!r} step {step.t}: no attention, cumulative attention, or features"
            )
    return replace(seq, steps=tuple(new_steps))


KINDS = ("attention", "cumulative", "both", "features", "mixed")


def random_sequence(rng, seq_id, kind, length):
    source = int(rng.integers(1, 9))
    running = None
    steps = []
    for t in range(1, length + 1):
        alpha = random_simplex(rng, source)
        if rng.random() < 0.2:
            alpha = np.eye(source)[int(rng.integers(source))]  # one-hot: entropy exactly 0
        running = alpha.copy() if running is None else running + alpha
        shape = kind
        if kind == "mixed":
            # a features-only step only last: later steps would need its unknown attention
            choices = ["attention", "cumulative", "both", "attention+features", "cumulative+features"]
            shape = choices[int(rng.integers(len(choices)))] if t < length or rng.random() < 0.7 else "features"
        feats = StepFeatures(float(rng.random() * 2), float(rng.random()))
        steps.append(make_record(
            [0.25, 0.75], gold=1, seq_id=seq_id, t=t,
            attention=alpha if shape.startswith(("attention", "both")) else None,
            cum_attention=running if shape.startswith(("cumulative", "both")) else None,
            features=feats if shape.endswith("features") else None,
        ))
    return SequenceRecord(seq_id=seq_id, steps=tuple(steps))


@pytest.mark.parametrize("seed", range(6))
def test_columnar_features_match_the_per_step_loop(seed):
    rng = np.random.default_rng(900 + seed)
    sequences = [
        random_sequence(rng, f"{kind}-{i}", kind, 1 if i % 4 == 0 else int(rng.integers(2, 12)))
        for i, kind in enumerate(KINDS * 8)
    ]
    expected = [step for seq in sequences for step in reference_enrich(seq).steps]
    batch = LogBatch.from_records([step for seq in sequences for step in seq.steps])
    batch.check_step_order()
    got = list(enrich_batch(batch))
    assert len(got) == len(expected)
    for new, ref in zip(got, expected):
        assert (new.seq_id, new.t, new.attention) == (ref.seq_id, ref.t, ref.attention)
        assert new.features.entropy == pytest.approx(ref.features.entropy, abs=1e-12)
        assert new.features.coverage == pytest.approx(ref.features.coverage, abs=1e-12)
        assert (new.cum_attention is None) == (ref.cum_attention is None)
        if ref.cum_attention is not None:
            np.testing.assert_allclose(new.cum_attention, ref.cum_attention, rtol=0, atol=1e-12)
    assert [enrich(seq) for seq in sequences[:5]] == [reference_enrich(seq) for seq in sequences[:5]]


def test_running_sums_are_bit_identical_to_the_loop():
    rng = np.random.default_rng(5)
    seq = random_sequence(rng, "a", "attention", 40)
    new, ref = enrich(seq), reference_enrich(seq)
    assert [s.cum_attention for s in new.steps] == [s.cum_attention for s in ref.steps]
    assert [s.features for s in new.steps] == [s.features for s in ref.steps]


@pytest.mark.parametrize("steps, message", [
    ([dict(cum_attention=[0.3, 0.7]), dict(cum_attention=[0.2, 0.7])], "step 2: cumulative attention decreased"),
    ([dict(attention=[0.3, 0.7]), dict()], "step 2: no attention"),
    ([dict(attention=[0.3, 0.7]), dict(attention=[1.0])], "step 2: attention vectors differ in length"),
    ([dict(cum_attention=[0.3, 0.5])], "step 1: attention sums to 0.80000000"),
    ([dict(cum_attention=[])], "step 1: attention vector is empty"),
])
def test_feature_errors_name_sequence_and_step(steps, message):
    seq = SequenceRecord("s", tuple(make_record([1.0], gold=0, t=t, **kw) for t, kw in enumerate(steps, 1)))
    with pytest.raises(FeatureError, match=f"sequence 's' {message}"):
        enrich(seq)


FEATS = StepFeatures(entropy=0.4, coverage=0.5)


def test_step_after_a_features_only_step_cannot_use_the_running_sum():
    # step 2's attention is unknown, so step 3's running sum would leave it out
    steps = [make_record([1.0], gold=0, seq_id="gap", t=1, attention=[0.3, 0.7]),
             make_record([1.0], gold=0, seq_id="gap", t=2, features=FEATS),
             make_record([1.0], gold=0, seq_id="gap", t=3, attention=[0.3, 0.7])]
    assert reference_enrich(SequenceRecord("gap", tuple(steps))).steps[2].cum_attention == (0.6, 1.4)
    with pytest.raises(FeatureError, match="sequence 'gap' step 3: cumulative attention unknown"):
        enrich(SequenceRecord("gap", tuple(steps)))


def test_steps_after_the_gap_that_store_enough_pass():
    steps = [make_record([1.0], gold=0, seq_id="gap", t=1, attention=[0.3, 0.7]),
             make_record([1.0], gold=0, seq_id="gap", t=2, features=FEATS),
             make_record([1.0], gold=0, seq_id="gap", t=3, attention=[0.3, 0.7], features=FEATS),
             make_record([1.0], gold=0, seq_id="gap", t=4, attention=[0.5, 0.5], cum_attention=[1.1, 1.9]),
             make_record([1.0], gold=0, seq_id="gap", t=5, attention=[0.5, 0.5])]
    out = enrich(SequenceRecord("gap", tuple(steps))).steps
    assert out[2].features == FEATS and out[2].cum_attention is None  # unknown, so not filled in
    assert out[3].features.coverage == 1.0
    # the stored cumulative vector restarts the running sum
    assert out[4].cum_attention == (1.6, 2.4)
    assert out[4].features.coverage == 1.0


def test_cli_rejects_the_gap_with_a_data_error(tmp_path, capsys):
    path = tmp_path / "gap.jsonl"
    lines = [line(seq_id="g", t=1, cum_attention=DROP, features=DROP),
             line(seq_id="g", t=2, attention=DROP, cum_attention=DROP),
             line(seq_id="g", t=3, cum_attention=DROP, features=DROP)]
    path.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--logs", str(path), "--partition", "entropy:0.5", "--out", str(tmp_path / "r.json")]) == 2
    assert "sequence 'g' step 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI outputs equal the per-record code's on the benchmark inputs
# ---------------------------------------------------------------------------

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SEED = 7

INPUT_DIGESTS = {
    "toy/val.jsonl": "3123c4a5e5728369f04858ad455f4b91bb6e043a079b53187a41c2208c94c5e9",
    "toy/test.jsonl": "9a939700c857d86a0e230a10ba8e3681abebb6ed6728108adddc96685ffb46b2",
    "sparse/sparse.jsonl": "5b25eed53e24211eefb03993438df3bc8eec714fab592d8a3f3756514bf052b6",
}
OUTPUT_DIGESTS = {
    "toy/params.json": "638246612fde658435553985326813e02d65a6c89e589a524f5d3e5653bdd7cb",
    "toy/recal.jsonl": "ff579d58c8c2623d0ab350b6123a77b093b8927b61e10c1c07920ff3f5804c6f",
    "toy/stats.json": "a59b9a57d04dff117e3543f906741ebd31c7f3143ee3dda33ba91661314f5e98",
    "toy/stats.csv": "0d2f29168cec435e58d7cc9bf1a19b50eb5071e8ba431295a19b4babe6e03b54",
    "toy/partition.json": "a6a6acda533f481315e21bc2b2d34709ecb5a310aa471720bd8115c8b06a445f",
    "toy/plain.json": "92a26a2d00c912c11c10b461d970cb4f73eeb630f593e05c0ca8609f365eb99c",
    "toy/single.json": "aca0362a9d127984d2b9790f152927a93a541971f953b2c22ec89e1aae7c0348",
    "toy/recal_single.jsonl": "f8b732b3fa578b1378779dc411f642eae52f2562ce2e418b56a1ac1bf7db6b6f",
    "sparse/stats.json": "4cbcab3fd8b8da4e3456acef72904c2d9d5e3691235ee108597e8f83017ae425",
    "sparse/stats.csv": "cac67be8cbe709ba97fa0035981e25d069dc5aea35ff8fa3ae2faac4dae4241d",
    "sparse/plain.json": "1ab8bf5db1716374dabebae434356f39ffe3364c5927049ba3d3a1dc249488da",
    "sparse/eos.json": "f5cb86adca5e149532210f94580b99753752c50347f23b72f6513316109d90ae",
    "sparse/params.json": "c993c0c10501572434ddb494d2f6fbb71fb7674d15677842b5994ec59ec10f56",
    "sparse/recal.jsonl": "6f383a961bc0e47198e7bf4177f9bcf3c3bc6092fadf1c9e68d8f5669351bf35",
    "sparse/recal_var.jsonl": "020c15c43962e87edb8523142d91e30e7a0182ebb1458a27977f0bfb7ed8c47a",
}
# workload -> {group: (count, ece, weighted_ece)}
ENTROPY_PARTITIONS = {
    "toy": {"high": (8385, 0.14344788374760797, 0.14039483974550784),
                   "low": (1418, 0.1329429225117991, 0.12957633204620903)},
    "sparse": {"high": (6540, 0.1636903765126162, 0.11452656321452723),
                       "low": (6540, 0.16289948775236654, 0.11457017671620356)},
}


def derived_seed(seed: int, stream: int) -> int:
    """The benchmark's per-command seed."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_outputs_on_benchmark_inputs_equal_the_per_record_code(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("sparse_gen", BENCHMARKS / "sparse_gen.py")
    sparse_gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "sparse_gen", sparse_gen)
    spec.loader.exec_module(sparse_gen)
    toy, sparse = tmp_path / "toy", tmp_path / "sparse"
    toy.mkdir()
    sparse.mkdir()

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    ToyTaskSpec.two_way_default(eos_floor=0.02).save(toy / "task.json")
    DistortionSpec(temperature=0.5, eos_bias=1.5).save(toy / "distort.json")
    gen = ("toy", "gen", "--spec", toy / "task.json", "--distort", toy / "distort.json")
    run(*gen, "--n", 100, "--seed", derived_seed(SEED, 1), "--logs-out", toy / "val.jsonl")
    run(*gen, "--n", 1500, "--seed", derived_seed(SEED, 2), "--logs-out", toy / "test.jsonl")
    run("fit", "--logs", toy / "val.jsonl", "--mode", "variable", "--seed", derived_seed(SEED, 3),
        "--params-out", toy / "params.json")
    run("apply", "--logs", toy / "test.jsonl", "--params", toy / "params.json", "--logs-out", toy / "recal.jsonl")
    run("stats", "--logs", toy / "recal.jsonl", "--weighted", "--out", toy / "stats.json")
    run("stats", "--logs", toy / "recal.jsonl", "--partition", "eos", "--out", toy / "partition.json")
    run("stats", "--logs", toy / "recal.jsonl", "--out", toy / "plain.json")
    run("stats", "--logs", toy / "test.jsonl", "--partition", "entropy:0.8", "--out", toy / "entropy.json")
    run("fit", "--logs", toy / "val.jsonl", "--mode", "single", "--params-out", toy / "single.json")
    run("apply", "--logs", toy / "test.jsonl", "--params", toy / "single.json",
        "--logs-out", toy / "recal_single.jsonl")

    log = sparse_gen.generate(sparse / "sparse.jsonl", derived_seed(SEED, 1), sparse_gen.SEQUENCES)
    head = (sparse / "sparse.jsonl").read_text().splitlines(keepends=True)
    (sparse / "fit.jsonl").write_text("".join(head[:100]))
    (sparse / "apply.jsonl").write_text("".join(head[:10]))
    logs = ("--logs", sparse / "sparse.jsonl")
    run("stats", *logs, "--weighted", "--out", sparse / "stats.json")
    run("stats", *logs, "--partition", f"entropy:{log.entropy_median!r}", "--out", sparse / "entropy.json")
    run("stats", *logs, "--out", sparse / "plain.json")
    run("stats", *logs, "--partition", "eos", "--out", sparse / "eos.json")
    run("fit", "--logs", sparse / "fit.jsonl", "--mode", "single", "--params-out", sparse / "params.json")
    run("apply", "--logs", sparse / "apply.jsonl", "--params", sparse / "params.json",
        "--logs-out", sparse / "recal.jsonl")
    # variable params on a log without features: apply derives them and writes only the input's fields
    run("apply", "--logs", sparse / "apply.jsonl", "--params", toy / "params.json",
        "--logs-out", sparse / "recal_var.jsonl")

    assert {name: sha256(tmp_path / name) for name in INPUT_DIGESTS} == INPUT_DIGESTS
    assert {name: sha256(tmp_path / name) for name in OUTPUT_DIGESTS} == OUTPUT_DIGESTS
    for label, groups in ENTROPY_PARTITIONS.items():
        got = json.loads((tmp_path / label / "entropy.json").read_text())["groups"]
        assert {g: v["count"] for g, v in got.items()} == {g: v[0] for g, v in groups.items()}
        for g, (_, plain, weighted) in groups.items():
            assert got[g]["ece"] == pytest.approx(plain, abs=1e-12)
            assert got[g]["weighted_ece"] == pytest.approx(weighted, abs=1e-12)


# toy/val.jsonl as written while logs also stored the derived cum_attention and features
ENRICHED_VAL_DIGEST = "a24ce26dd2063a1042afc21c4dad24a93e513e6ae024a047581cc240d0b4e795"


def test_a_log_in_the_enriched_format_gives_the_same_outputs(tmp_path):
    """The toy val log in the earlier format, with cum_attention and features
    stored, and as ``toy gen`` writes it now, attention only: fits and reports
    are the same bytes, and apply writes the same distributions, each output
    keeping its own input's other fields."""
    task = ToyTaskSpec.two_way_default(eos_floor=0.02)
    model = distort(build_true_model(task), DistortionSpec(temperature=0.5, eos_bias=1.5))
    batch = emit_log_batch(model, task, 100, derived_seed(SEED, 1))
    logs = {"enriched": tmp_path / "enriched.jsonl", "bare": tmp_path / "bare.jsonl"}
    write_log_file(logs["enriched"], enrich_batch(batch))
    write_log_file(logs["bare"], batch)
    assert sha256(logs["enriched"]) == ENRICHED_VAL_DIGEST
    assert sha256(logs["bare"]) == INPUT_DIGESTS["toy/val.jsonl"]

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    reports = ("variable.json", "single.json", "weighted.json", "weighted.csv", "eos.json", "entropy.json")
    written, applied = {}, {}
    for name, log in logs.items():
        out = tmp_path / name
        out.mkdir()
        run("fit", "--logs", log, "--mode", "variable", "--seed", derived_seed(SEED, 3),
            "--params-out", out / "variable.json")
        run("fit", "--logs", log, "--mode", "single", "--params-out", out / "single.json")
        run("stats", "--logs", log, "--weighted", "--out", out / "weighted.json")
        run("stats", "--logs", log, "--partition", "eos", "--out", out / "eos.json")
        run("stats", "--logs", log, "--partition", "entropy:0.8", "--out", out / "entropy.json")
        written[name] = [(out / report).read_bytes() for report in reports]
        for params in ("variable", "single"):
            run("apply", "--logs", log, "--params", out / f"{params}.json", "--logs-out", out / f"{params}.jsonl")
            distributions, fields = split_lines(out / f"{params}.jsonl")
            assert fields == split_lines(log)[1], (name, params)
            applied[name, params] = distributions
    assert written["enriched"] == written["bare"]
    for params in ("variable", "single"):
        assert applied["enriched", params] == applied["bare", params], params
