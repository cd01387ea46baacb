"""Peak memory of the metric and enrichment passes, and the bin-by-bin sums
they rest on.

The peaks are ``tracemalloc`` peaks over one call on a seeded NMT-shaped
batch (about 2,000 rows, two blocks of ``BLOCK_ROWS``; top-10 entries over
V=32000, attention over 20-40 source positions), with the batch's pooled
layout already built. Each is bounded by a multiple of the batch's own
column bytes, set from the passes that hold one block of rows at a time
with at most 25 % headroom: ``ece``, ``weighted_ece``, ``enrich_batch``, the
entropy partition, ``LogBatch.validate``, building the layout and the
variable calibrator's ``recalibrate._features`` measured 0.062, 0.428,
1.350, 0.769, 0.420, 0.911 and 0.840. The entropy partition reads the stored
attention in place, and ``_features`` builds no ``cum_attention`` column;
while both went through ``enrich_batch`` they measured 1.158 and 1.338
(``ece`` 0.071 and the entropy partition 1.330 while they took every row's
top-1 items, and enriched the whole batch, at once). The whole-log passes
before them peaked at 0.077, 0.587, 1.46, 1.46, 0.773 and 1.182; the passes
before those, which stably sorted every item by bin and built int64 indices
with one entry per attention weight, at 0.24, 2.26, 3.19 and 3.19.

``tracemalloc`` sees only what Python allocates, and glibc keeps freed heap
memory resident, so a command's own peak RSS (``VmHWM``) above that of the
import is bounded too, for ``stats --weighted`` and the entropy partition
on a log of the same rows, about 8,000 of them. Read, checked and scored a
block of whole sequences at a time, they measured 0.45-0.53 and 0.48-0.52
times the log's column bytes, and three times the rows raised them by
0.05-0.19 and 0.27-0.31 MB (twelve and nine runs). While the partition
enriched each block through ``enrich_batch`` it measured 0.57-0.65 times
and grew by 0.56-0.70 MB. Holding the whole log's columns they measured
1.79-1.81 and 1.81-1.82 times, and grew by 11.5 and 12.5-12.8 MB; the
whole-log passes before those, 2.62 and 2.69 times.
``apply`` with a single temperature still holds the log's columns and the
ones it writes, but lays out one block of rows at a time: on the log
written three times over it measured 1.95 times those rows' column bytes
(two runs), and 2.82 times while it held the whole log's layout.

``_finalize`` adds each bin's items up as exact integers (``BinSums``);
``reference_finalize`` below is an earlier version, which took
``math.fsum`` over slices of the items sorted by bin. Both round exactly,
so they must agree bit for bit.

``write_log_file`` formats a block of rows at a time, so its peak must not
grow with the log: writing four times the rows may raise it by less than
the text of one block.

Teacher forcing keeps each step's nonzero entries, so ``toy gen`` at
V = 32000 never holds a dense (N, V) log. ``toy gen`` draws, teacher-forces
and writes a block of whole sequences at a time, so its peak RSS
(``command_peak``, the launcher the ``stats`` gates use) must not grow with
``--n``: from 1,500 to 4,500 sequences it grew by 0.28-0.39 MB (three
runs); holding the whole log's columns before formatting them, it grew by
6.64-6.77 MB.

The seeded commands draw their streams with ``rng.Stream``, so none imports
``numpy.random`` (nine C extensions, and ``hashlib`` through ``secrets``),
and ``toy gen`` and the variable fit peak within 4 MB of the import.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import seqcal
from seqcal.features import enrich_batch
from seqcal.metrics import (BinSums, Calibration, PartitionSpec, _finalize, _top1, ece, partitioned_metric,
                            weighted_ece)
from seqcal.recalibrate import SingleTemperature, _features, save_params
from seqcal.records import (BLOCK_ROWS, BinningConfig, LogBatch, ReliabilityHistogram, TokenRecord, pooled_layout,
                            write_log_file)
from seqcal.toybench import DistortionSpec, ToyTaskSpec, build_true_model, emit_log_batch

VOCAB, TOP_K, EOS_ID = 32000, 10, 2


def sparse_batch(seed: int = 12, rows: int = 2000) -> LogBatch:
    """Whole sequences of top-K steps with Dirichlet attention over one
    source length per sequence, about ``rows`` steps in all."""
    rng = np.random.default_rng(seed)
    records = []
    seq = 0
    while len(records) < rows:
        width, steps = int(rng.integers(20, 41)), int(rng.integers(10, 40))
        for t in range(1, steps + 1):
            tail = rng.uniform(0.02, 0.25)
            head = np.sort(rng.dirichlet(np.full(TOP_K, 0.3)))[::-1] * (1.0 - tail)
            ids = rng.choice(np.arange(3, VOCAB), TOP_K, replace=False)
            if t == steps:
                ids[0] = EOS_ID
            gold = int(ids[rng.integers(TOP_K)]) if rng.random() > tail else int(rng.integers(3, VOCAB))
            records.append(TokenRecord(
                seq_id=f"s{seq}", t=t, vocab_size=VOCAB, eos_id=EOS_ID, gold_id=gold,
                entries=tuple(zip(ids.tolist(), head.tolist())), rest_mass=float(tail),
                attention=tuple(rng.dirichlet(np.full(width, 0.5)).tolist()),
            ))
        seq += 1
    return LogBatch.from_records(records)


@pytest.fixture(scope="module")
def batch():
    batch = sparse_batch()
    batch.layout  # built once, as every CLI command that scores a log builds it
    return batch


def column_bytes(batch: LogBatch) -> int:
    return sum(getattr(batch, f.name).nbytes for f in fields(batch) if isinstance(getattr(batch, f.name), np.ndarray))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


PEAKS = [
    ("ece", lambda b: ece(b), 0.07),
    ("weighted_ece", lambda b: weighted_ece(b), 0.52),
    ("enrich_batch", lambda b: enrich_batch(b), 1.45),
    ("entropy partition", lambda b: partitioned_metric(b, PartitionSpec.entropy(2.0)), 0.95),
    ("recalibrate._features", lambda b: _features(b), 1.0),
    ("LogBatch.validate", lambda b: b.validate(), 0.5),
    ("pooled_layout", lambda b: pooled_layout(b), 1.1),
]


@pytest.mark.parametrize("name, call, multiple", PEAKS, ids=[name for name, _, _ in PEAKS])
def test_peak_is_a_bounded_multiple_of_the_input(batch, name, call, multiple):
    call(batch)  # any lazy set-up, such as a first call's imports, is not the pass's own memory
    peak = traced_peak(lambda: call(batch))
    assert peak <= multiple * column_bytes(batch), f"{name} peaked at {peak / column_bytes(batch):.3f}x the input"


def has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


# a child's peak RSS in bytes, printed at exit
VMHWM = ("def hwm():\n    with open('/proc/self/status') as status:\n"
         "        return int(next(l.split()[1] for l in status if l.startswith('VmHWM:'))) * 1024\n")
# runs ``seqcal`` with the child's arguments, as the benchmark's launcher does
COMMAND = ("import atexit, runpy\natexit.register(lambda: print(hwm()))\n"
           "runpy.run_module('seqcal.cli', run_name='__main__')")


def child_output(code: str, argv, cwd) -> list[str]:
    """The words of the last line that a child which runs ``code`` with ``argv`` in ``cwd`` prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(seqcal.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", VMHWM + code, *map(str, argv)], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=120)
    return run.stdout.splitlines()[-1].split()


def child_peak(code: str, argv, cwd) -> int:
    """The peak RSS in bytes of a child that runs ``code`` with ``argv`` in ``cwd``."""
    return int(child_output(code, argv, cwd)[-1])


def command_peak(argv, cwd) -> int:
    """The peak RSS in bytes of ``seqcal`` run with ``argv`` in ``cwd``."""
    return child_peak(COMMAND, argv, cwd)


STATS_OPTIONS = (("--weighted",), ("--partition", "entropy:2.0"))
# each measured command, by its key in the peaks: its name and the arguments after its log
COMMANDS = {**{options: ("stats", *options, "--out", "stats.json") for options in STATS_OPTIONS},
            "apply": ("apply", "--params", "single.json", "--logs-out", "applied.jsonl")}
APPLY_MULTIPLE = 2.3  # of the column bytes at 3x rows


@pytest.fixture(scope="module")
def command_peaks(tmp_path_factory):
    """The column bytes of an 8,000-row log, and the peak RSS above that of
    the import of each of ``COMMANDS`` on that log (1) and on the log
    written three times over (3); ``apply`` with a single temperature."""
    tmp_path = tmp_path_factory.mktemp("peaks")
    batch = sparse_batch(rows=8000)
    logs = {1: tmp_path / "sparse.jsonl", 3: tmp_path / "sparse3.jsonl"}
    write_log_file(logs[1], batch)
    logs[3].write_text(logs[1].read_text(encoding="utf-8") * 3, encoding="utf-8")
    save_params(tmp_path / "single.json", SingleTemperature(1.7))
    imported = child_peak("import seqcal.cli\nprint(hwm())", [], tmp_path)
    return column_bytes(batch), {
        (key, k): command_peak([command[0], "--logs", log, *command[1:]], tmp_path) - imported
        for key, command in COMMANDS.items() for k, log in logs.items()
    }


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_command_peak_rss_is_a_bounded_multiple_of_the_input(command_peaks):
    column_bytes, peaks = command_peaks
    for options, multiple in zip(STATS_OPTIONS, (0.72, 0.6)):
        above = peaks[options, 1]
        assert above <= multiple * column_bytes, f"{options} peaked at {above / column_bytes:.3f}x"


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_command_peak_rss_does_not_grow_with_the_log(command_peaks):
    """``stats`` holds one block of the log at a time: three times the rows
    may raise its peak by at most 1.5 MB, and the entropy partition's,
    which copies no attention, by at most 0.5 MB."""
    _, peaks = command_peaks
    for options, bound in zip(STATS_OPTIONS, (1.5, 0.5)):
        growth = peaks[options, 3] - peaks[options, 1]
        assert growth <= bound * 2**20, f"{options} grew by {growth / 2**20:.2f} MB from 1x to 3x rows"


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_apply_peak_rss_is_a_bounded_multiple_of_the_input(command_peaks):
    """``apply`` holds the log's columns and those it writes, but lays out
    one block of rows at a time."""
    column_bytes, peaks = command_peaks
    above = peaks["apply", 3]
    assert above <= APPLY_MULTIPLE * 3 * column_bytes, f"peaked at {above / (3 * column_bytes):.3f}x at 3x rows"


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_gen_peak_rss_does_not_grow_with_the_sequence_count(tmp_path):
    """``toy gen`` holds one block of sequences at a time: three times the
    sequences may raise its peak by at most 1.5 MB."""
    ToyTaskSpec.two_way_default(eos_floor=0.02).save(tmp_path / "task.json")
    DistortionSpec(temperature=0.5, eos_bias=1.5).save(tmp_path / "distort.json")
    argv = ["toy", "gen", "--spec", "task.json", "--distort", "distort.json", "--seed", "3", "--logs-out", "logs.jsonl"]
    peaks = [command_peak([*argv, "--n", n], tmp_path) for n in (1500, 4500)]
    growth = peaks[1] - peaks[0]
    assert growth <= 1.5 * 2**20, f"grew by {growth / 2**20:.2f} MB from 1,500 to 4,500 sequences"


# the modules whose import costs a command about 6 MB of peak RSS, and which no command needs
UNNEEDED = ("numpy.random", "hashlib")
# runs ``seqcal`` as ``COMMAND`` does, and prints at exit which of ``UNNEEDED`` it imported, then its peak RSS
LEAN_COMMAND = ("import atexit, runpy, sys\n"
                f"atexit.register(lambda: print(*sorted(set({UNNEEDED!r}) & set(sys.modules)), hwm()))\n"
                "runpy.run_module('seqcal.cli', run_name='__main__')")


@pytest.fixture(scope="module")
def seeded_commands(tmp_path_factory):
    """Each seeded command on the benchmark's toy task, by name: what it
    printed at exit (the unneeded modules it imported, then its peak RSS);
    and the peak RSS of the import of ``seqcal.cli`` alone."""
    tmp_path = tmp_path_factory.mktemp("seeded")
    ToyTaskSpec.two_way_default(eos_floor=0.02).save(tmp_path / "task.json")
    DistortionSpec(temperature=0.5, eos_bias=1.5).save(tmp_path / "distort.json")
    (tmp_path / "model.json").write_text('{"distort": {"temperature": 0.5, "eos_bias": 1.5}}')
    gen = ("toy", "gen", "--spec", "task.json", "--distort", "distort.json")
    commands = {
        "toy gen": (*gen, "--n", 1500, "--seed", 3, "--logs-out", "test.jsonl"),
        "toy gen val": (*gen, "--n", 100, "--seed", 11, "--logs-out", "val.jsonl"),
        "fit variable": ("fit", "--logs", "val.jsonl", "--mode", "variable", "--seed", 5, "--params-out", "var.json"),
        "toy beamsweep": ("toy", "beamsweep", "--spec", "task.json", "--distort", "distort.json", "--params",
                          "var.json", "--beams", "1,2", "--seed", 3, "--out", "sweep.json"),
        "seqcal": ("seqcal", "--task", "task.json", "--model", "model.json", "--n", 10, "--samples", 5,
                   "--seed", 3, "--out", "seqcal.json"),
    }
    printed = {name: child_output(LEAN_COMMAND, argv, tmp_path) for name, argv in commands.items()}
    return printed, child_peak("import seqcal.cli\nprint(hwm())", [], tmp_path)


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("name", ["toy gen", "fit variable", "toy beamsweep", "seqcal"])
def test_seeded_commands_import_no_numpy_random(seeded_commands, name):
    """``rng.Stream`` draws every seeded stream, so no command imports
    ``numpy.random`` or, through ``secrets``, ``hashlib``."""
    printed, _ = seeded_commands
    assert printed[name][:-1] == []


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("name", ["toy gen", "fit variable"])
def test_seeded_commands_peak_near_the_import(seeded_commands, name):
    """``toy gen --n 1500`` and the variable fit of a 100-sequence log
    peaked 2.3-2.4 and 1.8-1.9 MB above the import (three runs); with
    ``numpy.random`` drawing their streams, 8.0 and 7.4 MB."""
    printed, imported = seeded_commands
    above = int(printed[name][-1]) - imported
    assert above <= 4 * 2**20, f"{name} peaked {above / 2**20:.2f} MB above the import"


def reference_finalize(bins, count, key, weight, conf, acc, gap):
    """The earlier ``_finalize``: fsum over slices of the items stably sorted by bin."""
    hist = ReliabilityHistogram(bins.num_bins, *np.zeros((3, bins.num_bins)), float(count))
    bin_idx = np.clip((np.asarray(key, dtype=np.float64) * bins.num_bins).astype(np.int64), 0, bins.num_bins - 1)
    order = np.argsort(bin_idx, kind="stable")
    present, starts = np.unique(bin_idx[order], return_index=True)
    spans = list(zip(starts, np.append(starts[1:], len(order))))
    sums = []
    for values in (gap, weight, conf, acc):
        ordered = np.asarray(values)[order]
        sums.append([math.fsum(ordered[lo:hi]) for lo, hi in spans])
    gap_sums, hist.weight[present], hist.confidence_sum[present], hist.accuracy_sum[present] = sums
    return math.fsum(abs(g) for g in gap_sums) / count, hist


def assert_same_bits(got, want):
    assert got[0].hex() == want[0].hex()
    for name in ("weight", "confidence_sum", "accuracy_sum"):
        assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes(), name
    assert got[1].count == want[1].count


@pytest.mark.parametrize("num_bins", [1, 7, 20, 300])
@pytest.mark.parametrize("case", ["random", "members", "empty bins", "edges and p = 1"])
def test_bin_by_bin_sums_equal_the_sorted_slices(num_bins, case):
    rng = np.random.default_rng(num_bins)
    n = 5000
    key = rng.random(n)
    if case == "empty bins":
        key = rng.choice([0.01, 0.5, 0.97], n) + rng.uniform(0, 1e-3, n)
    elif case == "edges and p = 1":
        key = rng.integers(0, num_bins + 1, n) / num_bins  # every bin edge, and 1.0 itself
    # magnitudes over many orders with both signs, so that the summation order would show
    weight, conf, acc, gap = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 6, n) for _ in range(4))
    keep = rng.random(n) < 0.3 if case == "members" else np.ones(n, dtype=bool)
    count = int(keep.sum())
    got = _finalize(BinningConfig(num_bins), count, key[keep], (a[keep] for a in (weight, conf, acc, gap)))
    want = reference_finalize(BinningConfig(num_bins), count, *(a[keep] for a in (key, weight, conf, acc, gap)))
    assert_same_bits(got, want)


def test_bin_sums_equal_fsum_at_every_magnitude():
    """Subnormals to 1e300, both signs and exact cancellations, added in
    uneven pieces: each bin's sum is ``math.fsum`` of its values."""
    rng = np.random.default_rng(5)
    n, bins = 3000, 7
    values = [rng.choice([-1.0, 1.0], n) * rng.random(n) * 2.0 ** rng.integers(-1074, 997, n) for _ in range(2)]
    values[1][:100] = -values[0][:100]
    values[1][100:200] = 5e-324
    bin_idx = rng.integers(0, bins, n)
    sums = BinSums(bins, 2)
    for lo, hi in zip([0, 1, 500, 2999], [1, 500, 2999, 3000]):
        sums.add(bin_idx[lo:hi], (v[lo:hi] for v in values))
    got = sums.sums()
    for k, v in enumerate(values):
        assert [x.hex() for x in got[k]] == [math.fsum(v[bin_idx == b]).hex() for b in range(bins)]


def test_weighted_ece_equals_the_earlier_whole_array_items(batch):
    """The slot values computed one bin at a time equal those computed over
    every active slot at once and then sorted."""
    layout = batch.layout
    for members in (np.arange(len(batch)) % 3 == 0, batch.gold_id % 2 == 0, np.ones(len(batch), dtype=bool)):
        active = layout.active & members[:, None]
        row, col = np.nonzero(active)
        is_gold = (col == layout.gold[row]).astype(np.float64)
        p, mult = layout.prob[active], layout.mult[active]
        weight = mult * p
        count = int(members.sum())
        want = reference_finalize(BinningConfig(), count, p, weight, weight * p, p * is_gold, p * (is_gold - weight))
        calibration = Calibration(BinningConfig(), weighted=True, groups=2)
        calibration.add(batch, members.astype(np.int64))  # the members are group 1
        got = calibration.result(1)
        assert_same_bits(got, want)
    assert_same_bits(weighted_ece(batch), want)  # all rows, the last members above


@pytest.mark.parametrize("num_bins", [10, 20, 100, 1000])
def test_scores_at_any_bin_count_equal_the_sorted_slices(batch, num_bins):
    """``ece`` and ``weighted_ece`` equal the sorted-slice sums bit for bit
    however many bins their items spread over."""
    bins, layout = BinningConfig(num_bins), batch.layout
    pred, conf = _top1(layout)
    acc = (pred == batch.gold_id).astype(np.float64)
    want = reference_finalize(bins, len(batch), conf, np.ones(len(conf)), conf, acc, acc - conf)
    assert_same_bits(ece(batch, bins), want)
    row, col = np.nonzero(layout.active)
    is_gold = (col == layout.gold[row]).astype(np.float64)
    p = layout.prob[layout.active]
    weight = layout.mult[layout.active] * p
    want = reference_finalize(bins, len(batch), p, weight, weight * p, p * is_gold, p * (is_gold - weight))
    assert_same_bits(weighted_ece(batch, bins), want)


@pytest.mark.parametrize("as_records", [False, True], ids=["batch", "records"])
def test_writer_peak_does_not_grow_with_the_log(tmp_path, as_records):
    """A toy log (attention, cum_attention and features on every row) of
    about five blocks, written whole and a quarter of it."""
    task = ToyTaskSpec.two_way_default()
    records = list(enrich_batch(emit_log_batch(build_true_model(task), task, 700, seed=3)))
    quarter = len(records) // 4
    assert quarter > BLOCK_ROWS
    path = tmp_path / "log.jsonl"
    peaks = []
    for rows in (records[:quarter], records[: 4 * quarter]):
        source = iter(rows) if as_records else LogBatch.from_records(rows)
        peaks.append(traced_peak(lambda: write_log_file(path, source)))
    with open(path, "rb") as handle:
        block_text = sum(len(next(handle)) for _ in range(BLOCK_ROWS))
    assert peaks[1] - peaks[0] < block_text, f"peaks {peaks} against a block of {block_text} bytes"


def test_teacher_forcing_stages_no_dense_log():
    """120 sequences (766 rows) at V = 32000 peak at about 8.7 MB, most of
    it one step's (live, V) rows: under a twentieth of the (N, V) float
    matrix of the rows, 196 MB. Staging every step in that matrix and its
    (N, V) mask peaked at 226 MB; a fresh copy of the emission table per
    pair draw and two steps' rows alive at once peaked at 17 MB."""
    task = ToyTaskSpec.two_way_default(target_vocab_size=VOCAB, eos_floor=0.02)
    model = build_true_model(task)
    emitted = []
    peak = traced_peak(lambda: emitted.append(emit_log_batch(model, task, 120, seed=4)))
    dense = len(emitted[0]) * VOCAB * 8
    assert peak < dense / 20, f"peaked at {peak / 1e6:.1f} MB against a dense log of {dense / 1e6:.1f} MB"
