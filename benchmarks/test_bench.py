"""Tests of the benchmark's own logic: span arithmetic, the probe
normalisation, the sparse log generator, and a tiny-size run of every
workload.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import sparse_gen  # noqa: E402
import tracer  # noqa: E402
from seqcal.records import parse_log_line  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _spans(rows, names):
    """rows: (name, start, end, parent, amount)"""
    return tracer.Spans(
        names=list(names),
        name_idx=np.array([names.index(r[0]) for r in rows], dtype=np.int64),
        start=np.array([r[1] for r in rows], dtype=np.float64),
        end=np.array([r[2] for r in rows], dtype=np.float64),
        parent=np.array([r[3] for r in rows], dtype=np.int64),
        amount=np.array([r[4] for r in rows], dtype=np.float64),
    )


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c", "d"]
    spans = _spans(
        [
            ("a", 0.0, 10.0, -1, 0),  # children b (3 s) and c (4 s)
            ("b", 1.0, 4.0, 0, 0),
            ("c", 5.0, 9.0, 0, 0),  # child d (2 s)
            ("d", 6.0, 8.0, 2, 0),
            ("a", 20.0, 21.5, -1, 0),  # second root, no children
        ],
        names,
    )
    assert tracer.self_times(spans).tolist() == [3.0, 3.0, 2.0, 2.0, 1.5]
    totals = tracer.totals_by_name(spans)
    assert (totals["a"].calls, totals["a"].inclusive_s, totals["a"].self_s) == (2, 11.5, 4.5)
    assert totals["c"].self_s == 2.0 and totals["d"].inclusive_s == 2.0


def test_normalised_times_use_the_probes_on_both_sides():
    nominal = run.PROBE_NOMINAL_S
    # the second command ran between a nominal probe and one three times slower
    assert run.normalised([2.0, 4.0], [nominal, nominal, 3 * nominal]) == pytest.approx([2.0, 2.0])
    # per command position: medians 2.0 and 2.0, then summed
    assert run.chain_total([[1.0, 5.0], [3.0, 1.0], [2.0, 2.0]]) == pytest.approx(4.0)


def test_layer_metrics_from_nested_model_steps():
    cal, dist, toy = tracer.MODEL_STEPS
    names = ["cli.run", "sequence.beam_search", cal, dist, toy, "features.coverage"]
    spans = _spans(
        [
            ("cli.run", 0.0, 10.0, -1, 0),
            ("sequence.beam_search", 1.0, 9.0, 0, 0),
            (cal, 2.0, 6.0, 1, 0),  # outermost step: self 4 - 2 - 0.5
            (dist, 3.0, 5.0, 2, 0),  # self 2 - 1
            (toy, 3.5, 4.5, 3, 0),
            ("features.coverage", 5.0, 5.5, 2, 0),
            (toy, 7.0, 7.25, 1, 0),  # a bare model step is outermost too
        ],
        names,
    )
    metrics = tracer.layer_metrics([("beamsweep", spans)])
    assert metrics["sequence.model_calls"] == (2.0, "count")
    assert metrics["recalibrate.calibrated_step_s"] == (1.5, "s")
    assert metrics["recalibrate.calibrated_step_calls"] == (1.0, "count")
    assert metrics["toybench.model_step_calls"] == (2.0, "count")
    assert metrics["toybench.model_step_s"] == (1.0 + 1.0 + 0.25, "s")
    assert metrics["sequence.beam_search_s"] == (8.0, "s")
    assert metrics["cli.beamsweep.self_s"] == (2.0, "s")
    assert metrics["cli.apply.self_s"] == (0.0, "s")
    assert metrics["records.parse_s"] == (0.0, "s")


def test_sparse_generator_lines_parse(tmp_path):
    path = tmp_path / "sparse.jsonl"
    log = sparse_gen.generate(path, seed=7, sequences=6)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == log.records > 0
    records = [parse_log_line(line, line_number=i) for i, line in enumerate(lines, start=1)]
    for record, next_record in zip(records, records[1:] + [None]):
        assert record.vocab_size == sparse_gen.VOCAB
        assert len(record.entries) == sparse_gen.TOP_K
        assert record.features is None and record.attention is not None
        last = next_record is None or next_record.seq_id != record.seq_id
        assert (record.eos_id in {i for i, _ in record.entries}) == last
    sparse_gen.generate(tmp_path / "again.jsonl", seed=7, sequences=6)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


QUALITY_GATES = {"ece_after", "temperature_err", "beam_bleu_drop"}


@pytest.mark.parametrize(
    "workload,trace",
    [(name, 0) for name in sorted(run.WORKLOADS)] + [("toy-pipeline", 1)],
)
def test_tiny_run(workload, trace):
    detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {m["name"]: m["unit"] for m in expected}
    # statistical gates are sized for the full inputs; the rest must hold at any size
    structural = {k: v for k, v in detail["checks"].items() if k not in QUALITY_GATES}
    assert structural and all(structural.values()), detail["errors"]
    assert detail["checks"].keys() & QUALITY_GATES
    assert not detail.get("absent")
