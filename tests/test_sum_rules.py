"""One verdict per row on "these weights sum to 1 within 1e-6", on every path.

Attention vectors are summed as ``np.sum`` sums them and distributions as a
running total in entry order; every reader, decoder and spec check takes the
same sum. The rows here sum to 1 + 1e-6 before rounding, so the summation
orders disagree about some of them.
"""

import json
import math

import numpy as np
import pytest

from seqcal.cli import main
from seqcal.errors import FeatureError, ModelError, ValidationError
from seqcal.features import attention_entropy, enrich_batch
from seqcal.records import read_log, sums_to_one
from seqcal.sequence import BeamConfig, ScoringModel, beam_search, sample_sequence
from seqcal.toybench import ToyTaskSpec, build_true_model, emit_log_batch


def near_bound_rows(count, width=None, seed=0):
    """Flat-Dirichlet rows of ``width`` weights (else 9 to 39, drawn), each
    scaled to sum to 1 + 1e-6."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        row = rng.dirichlet(np.ones(width or rng.integers(9, 40)))
        rows.append(row * ((1 + 1e-6) / row.sum()))
    return rows


def verdict(error, call, *args):
    """True when ``call(*args)`` returns, False when it raises ``error``."""
    try:
        call(*args)
    except error:
        return False
    return True


def test_the_rows_straddle_the_bound_by_summation_order():
    rows = near_bound_rows(300)
    assert int(rows[4].size) == 29 and not sums_to_one(rows[4].sum()) and sums_to_one(math.fsum(rows[4]))
    verdicts = {tuple(bool(sums_to_one(total)) for total in (row.sum(), math.fsum(row), np.cumsum(row)[-1]))
                for row in rows}
    assert len(verdicts) > 2  # the three summation orders disagree on some rows


def attention_line(i, row):
    return json.dumps({"seq_id": f"s{i}", "t": 1, "vocab_size": 2, "eos_id": 1, "gold_id": 0,
                       "entries": [[0, 0.6], [1, 0.4]], "rest_mass": 0.0, "attention": row.tolist()})


def test_attention_near_the_bound_gets_one_verdict_on_every_path(tmp_path):
    rows = near_bound_rows(300)
    lines = [attention_line(i, row) for i, row in enumerate(rows)]
    read = [verdict(ValidationError, read_log, [line]) for line in lines]
    assert read.count(False) and read.count(True)
    for line, row, ok in zip(lines, rows, read):
        assert verdict(FeatureError, attention_entropy, row) == ok
        if ok:
            enrich_batch(read_log([line]))

    good = tmp_path / "good.jsonl"
    good.write_text("".join(line + "\n" for line, ok in zip(lines, read) if ok))
    logs = [(good, 0)]
    for k, line in enumerate([line for line, ok in zip(lines, read) if not ok][:3]):
        path = tmp_path / f"bad{k}.jsonl"
        path.write_text(line + "\n")
        logs.append((path, 2))
    out = tmp_path / "out.json"
    for path, code in logs:  # the good log first: apply reads the params fitted on it
        assert main(["stats", "--logs", str(path), "--out", str(out)]) == code
        assert main(["stats", "--logs", str(path), "--partition", "entropy:1.0", "--out", str(out)]) == code
        assert main(["fit", "--logs", str(path), "--mode", "variable",
                     "--params-out", str(tmp_path / f"{path.stem}.params.json")]) == code
        assert main(["apply", "--logs", str(path), "--params", str(tmp_path / "good.params.json"),
                     "--logs-out", str(tmp_path / "recal.jsonl")]) == code


class FixedRowModel(ScoringModel):
    """Every step emits ``row`` over 21 tokens (EOS last) and uniform attention."""

    def __init__(self, row):
        self.row = row

    @property
    def vocab_size(self):
        return 21

    @property
    def eos_id(self):
        return 20

    def start(self, source):
        return len(source)

    def step(self, state, prefix):
        return self.row, np.full(state, 1.0 / state), state


def test_a_decoder_row_is_logged_if_and_only_if_decoding_accepts_it():
    task = ToyTaskSpec.two_way_default(min_len=2, max_len=2)
    verdicts = set()
    for row in near_bound_rows(300, width=21):
        model = FixedRowModel(row)
        logged = verdict(ModelError, emit_log_batch, model, task, 1, 0)
        assert verdict(ModelError, beam_search, model, (0, 1), BeamConfig(beam_width=2, max_len=2)) == logged
        assert verdict(ModelError, sample_sequence, model, (0, 1), np.random.default_rng(0), 2) == logged
        verdicts.add(logged)
    assert verdicts == {True, False}


def test_a_task_spec_loads_if_and_only_if_toy_gen_emits_it():
    verdicts = set()
    for row in near_bound_rows(300):
        width = len(row)
        payload = {"source_vocab_size": 1, "target_vocab_size": width, "eos_id": width - 1,
                   "min_len": 1, "max_len": 1, "gamma": 0.3, "seed": 0, "emissions": [row.tolist()]}
        loads = verdict(ValidationError, ToyTaskSpec.from_payload, payload)
        # the same spec with its check skipped, for toy gen's verdict on the row
        spec = ToyTaskSpec.from_payload({**payload, "emissions": [[1.0] + [0.0] * (width - 1)]})
        object.__setattr__(spec, "emissions", (tuple(row.tolist()),))
        assert verdict(ModelError, emit_log_batch, build_true_model(spec), spec, 3, 0) == loads
        verdicts.add(loads)
    assert verdicts == {True, False}


@pytest.mark.parametrize("bound", [1 - 1e-6, 1 + 1e-6])
def test_a_dense_row_and_its_sparse_line_sum_alike(bound):
    """Zeros add exactly to a running total, so a decoder row with zeros and
    its log line, which lists only the nonzero entries, get one verdict."""
    task = ToyTaskSpec.two_way_default(min_len=2, max_len=2)
    for row in near_bound_rows(200, width=11):
        dense = np.zeros(21)
        dense[::2] = row * (bound / (1 + 1e-6))
        model = FixedRowModel(dense)
        logged = verdict(ModelError, emit_log_batch, model, task, 1, 0)
        assert verdict(ModelError, beam_search, model, (0, 1), BeamConfig(beam_width=2, max_len=2)) == logged
