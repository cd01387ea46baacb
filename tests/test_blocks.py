"""Blocked passes against the one-row and one-sequence code.

``LogBatch.errors``, ``enrich_batch``, ``pooled_layout`` and the metrics run
a block of ``BLOCK_ROWS`` rows at a time (``enrich_batch`` a block of whole
sequences). The log below spans more than three blocks; one sequence
straddles the first block edge and is longer than a block, and the next
straddles the second edge. Each blocked pass must give what the code for a
single row (or a single sequence) gives, bit for bit, and every metric the
same bits at any block size.

``recalibrate_log`` lays out each block of rows with that block's own
``pooled_layout``, which must give the bits of the whole log's layout cut
to the block's width, as the earlier apply did it, at any block size.

``stats`` reads, checks and scores the log a block of whole sequences at a
time (``read_log_blocks``): its reports must be the bytes of the whole-log
path at any block size, its errors must name the line they name in the
whole log, and the entropy partition must keep ``ensure_features``'s rule
across blocks.

``toy gen`` draws, teacher-forces, checks and writes a block of whole
sequences at a time (``emit_log_blocks``): its log must be the bytes of
``emit_log_batch`` at any block size, and a model that fails in a later
block must leave no file behind and an existing target as it was.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from seqcal import cli, records
from seqcal.cli import main
from seqcal.errors import ParseError, ValidationError
from seqcal.features import enrich, enrich_batch, ensure_features
from seqcal.metrics import PartitionSpec, ece, head_tail_curve, nll, partitioned_metric, weighted_ece
from seqcal.recalibrate import THETA_SIZE, CalibratorParams, SingleTemperature, _recalibrated, recalibrate_log
from seqcal.records import (BLOCK_ROWS, LogBatch, PooledLayout, SequenceRecord, StepFeatures, TokenRecord, blocks,
                            offsets_of, pooled_layout, read_log_blocks, read_log_file, write_log_file)
from seqcal.toybench import (DistortionSpec, ToyModel, ToyTaskSpec, _pairs, build_true_model, distort, emit_log_batch,
                             emit_log_blocks)

VOCAB, EOS_ID = 50, 2
# the second sequence covers rows 700..2023: the first edge, and more than a block
LENGTHS = [700, BLOCK_ROWS + 300, 40]


def sequence(rng, seq: int, steps: int) -> list[TokenRecord]:
    """Top-K steps, K in 1..12, with EOS listed or not, the gold token listed
    or in the tail, and attention over one source length."""
    width = int(rng.integers(3, 11))
    rows = []
    for t in range(1, steps + 1):
        k = int(rng.integers(1, 13))
        ids = rng.choice(VOCAB, k, replace=False)
        tail = float(rng.uniform(0.0, 0.3))
        probs = rng.dirichlet(np.full(k, 0.5)) * (1.0 - tail)
        gold = int(ids[rng.integers(k)]) if rng.random() < 0.7 else int(rng.integers(VOCAB))
        rows.append(TokenRecord(
            seq_id=f"s{seq}", t=t, vocab_size=VOCAB, eos_id=EOS_ID, gold_id=gold,
            entries=tuple(zip(ids.tolist(), probs.tolist())), rest_mass=tail,
            attention=tuple(rng.dirichlet(np.full(width, 0.5)).tolist()),
        ))
    return rows


@pytest.fixture(scope="module")
def steps() -> list[list[TokenRecord]]:
    rng = np.random.default_rng(20)
    lengths = list(LENGTHS)
    while sum(lengths) < 3 * BLOCK_ROWS + 200:
        lengths.append(int(rng.integers(5, 60)))
    return [sequence(rng, seq, n) for seq, n in enumerate(lengths)]


@pytest.fixture(scope="module")
def batch(steps) -> LogBatch:
    return LogBatch.from_records(row for seq in steps for row in seq)


def test_the_log_spans_the_block_edges(batch):
    assert len(batch) > 3 * BLOCK_ROWS
    assert len(list(blocks(len(batch)))) >= 4
    starts = batch.seq_starts
    assert starts[1] < BLOCK_ROWS < starts[2] and starts[2] - starts[1] > BLOCK_ROWS
    assert starts[2] < 2 * BLOCK_ROWS < starts[3]
    whole = list(blocks(len(batch), starts))
    assert whole[0] == (0, int(starts[1])) and whole[1] == (int(starts[1]), int(starts[2]))
    assert all(lo in starts and hi in starts for lo, hi in whole)


BAD = {  # a defect the checks name, by the field they name
    "gold_id": lambda r: replace(r, gold_id=VOCAB),
    "entries": lambda r: replace(r, entries=r.entries + (r.entries[0],)),
    "rest_mass": lambda r: replace(r, rest_mass=-0.5),
    "attention": lambda r: replace(r, attention=(0.7,) * len(r.attention)),
    "t": lambda r: replace(r, t=0),
}


def test_errors_equal_the_one_row_checks(batch):
    rows = list(batch)
    planted = [edge + side for edge in range(BLOCK_ROWS, len(rows), BLOCK_ROWS) for side in (-2, -1, 0, 1)]
    for k, row in enumerate(planted + [0, 5, len(rows) - 1]):
        rows[row] = list(BAD.values())[k % len(BAD)](rows[row])
    lines = range(1, len(rows) + 1)
    got = [(row, e.field, str(e)) for row, e in LogBatch.from_records(rows, lines=lines).errors()]
    want = [
        (row, e.field, str(e))
        for row, record in enumerate(rows)
        for _, e in LogBatch.from_records([record], lines=[row + 1]).errors()
    ]
    assert len(want) == len(planted) + 3
    assert got == want


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_enrich_batch_equals_enrich_of_each_sequence(steps, batch):
    enriched = enrich_batch(batch)
    want = LogBatch.from_records(
        step for seq in steps for step in enrich(SequenceRecord(seq[0].seq_id, tuple(seq))).steps)
    for name in ("entropy", "coverage", "cum_attention"):
        assert bits(getattr(enriched, name)) == bits(getattr(want, name)), name
    for name in ("has_cum", "cum_offsets", "has_features"):
        assert np.array_equal(getattr(enriched, name), getattr(want, name)), name


def widened(row: np.ndarray, listed: int, width: int, fill) -> np.ndarray:
    """A one-row layout's row at ``width``: its listed slots, padding, then its EOS and tail slots."""
    out = np.full(width, fill, dtype=row.dtype)
    out[:listed], out[-2:] = row[:listed], row[-2:]
    return out


def test_layout_rows_equal_one_row_layouts(batch):
    layout = pooled_layout(batch)
    width = layout.prob.shape[1]
    for i, record in enumerate(batch):
        one, k = pooled_layout([record]), len(record.entries)
        assert bits(layout.prob[i]) == bits(widened(one.prob[0], k, width, 0.0)), i
        assert bits(layout.mult[i]) == bits(widened(one.mult[0], k, width, 1.0)), i
        assert layout.mult[i, -1] == VOCAB - k - (EOS_ID not in dict(record.entries)), i
        assert np.array_equal(layout.ids[i], widened(one.ids[0], k, width, VOCAB)), i
        for column in ("gold", "eos"):
            c = int(getattr(one, column)[0])
            assert getattr(layout, column)[i] == (c if c < k else c + width - k - 2), (i, column)


def exact(value):
    """``value`` with every float and array replaced by its exact bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return exact(vars(value)) if hasattr(value, "__dict__") else value


def scores(batch: LogBatch) -> list:
    """Every metric, as exact bits."""
    fresh = replace(batch)  # no cached layout
    specs = (PartitionSpec.eos(), PartitionSpec.token(7), PartitionSpec.entropy(1.2), PartitionSpec.confidence(0.6))
    return exact([
        ece(fresh), weighted_ece(fresh), nll(fresh), head_tail_curve(fresh, [0.05, 0.5, 1.0]),
        [partitioned_metric(fresh, spec) for spec in specs],
    ])


@pytest.mark.parametrize("block_rows", [61, 1000, 10**6])
def test_every_metric_is_the_same_at_any_block_size(batch, block_rows, monkeypatch):
    want = scores(batch)
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    assert scores(batch) == want


def reference_recalibrate_log(batch: LogBatch, params) -> LogBatch:
    """The earlier ``recalibrate_log``: the whole log's layout (with the features of
    ``ensure_features`` for variable params), each block cut to the width of its widest row."""
    pool = pooled_layout(batch)
    if isinstance(params, CalibratorParams):
        enriched = ensure_features(batch)
        pool = replace(pool, entropy=enriched.entropy, coverage=enriched.coverage)
    n, width = len(batch), pool.prob.shape[1]
    counts = np.diff(batch.offsets)
    entry_row = np.repeat(np.arange(n), counts)
    entry_col = np.arange(len(batch.ids)) - batch.offsets[entry_row]
    listed_probs, eos_prob, tail_prob = np.empty(len(batch.ids)), np.empty(n), np.empty(n)
    for start, stop in blocks(n):
        listed = int(counts[start:stop].max())
        keep = np.r_[0:listed, width - 2, width - 1]

        def column(col):
            return np.where(col >= width - 2, col - (width - 2 - listed), col)

        block = PooledLayout(
            pool.prob[start:stop, keep], pool.tail[start:stop], column(pool.gold[start:stop]),
            column(pool.eos[start:stop]), entropy=None if pool.entropy is None else pool.entropy[start:stop],
            coverage=None if pool.coverage is None else pool.coverage[start:stop],
        )
        probs = _recalibrated(block, params)
        lo, hi = batch.offsets[start], batch.offsets[stop]
        listed_probs[lo:hi] = probs[entry_row[lo:hi] - start, entry_col[lo:hi]]
        eos_prob[start:stop], tail_prob[start:stop] = probs[:, -2], probs[:, -1]
    eos_unlisted = pool.eos == width - 2
    own_eos = eos_unlisted & (eos_prob != tail_prob)
    rest = (pool.tail[:, 0] + (eos_unlisted & ~own_eos)) * tail_prob
    offsets = offsets_of(counts + own_eos)
    ids, new_probs = np.empty(offsets[-1], dtype=np.int64), np.empty(offsets[-1])
    moved = np.arange(len(batch.ids)) + (offsets[:-1] - batch.offsets[:-1])[entry_row]
    ids[moved], new_probs[moved] = batch.ids, listed_probs
    last = offsets[1:][own_eos] - 1
    ids[last], new_probs[last] = batch.eos_id[own_eos], eos_prob[own_eos]
    return replace(batch, offsets=offsets, ids=ids, probs=new_probs, rest_mass=rest)


APPLIED = {
    "single": SingleTemperature(1.7),
    "variable": CalibratorParams.from_flat(np.random.default_rng(23).uniform(-1.0, 1.0, THETA_SIZE), plus_one=True),
}


@pytest.mark.parametrize("name", APPLIED)
@pytest.mark.parametrize("block_rows", [7, 61, 1024])
def test_apply_equals_the_whole_log_layout_cut_to_each_block(batch, name, block_rows, monkeypatch):
    """Rows of every width from 1 to 12 entries, so that blocks of 7 and 61
    rows differ in width; an unlisted EOS gains its own entry under the
    variable params."""
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    fresh = replace(batch)  # no cached layout
    got, want = recalibrate_log(fresh, APPLIED[name]), reference_recalibrate_log(fresh, APPLIED[name])
    widths = {int(np.diff(batch.offsets)[lo:hi].max()) for lo, hi in blocks(len(batch))}
    assert len(widths) > 1 or block_rows == 1024
    if name == "variable":
        assert len(got.ids) > len(batch.ids)
    for column in ("offsets", "ids", "probs", "rest_mass"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column


STATS = {  # every stats mode: report name -> its options
    "plain": [],
    "weighted": ["--weighted"],
    "eos": ["--partition", "eos"],
    "token": ["--partition", "token:7"],
    "entropy": ["--partition", "entropy:1.2"],
    "headtail": ["--partition", "headtail:0.05,0.5,1.0"],
}


def stats_reports(log, out, block_rows, monkeypatch) -> dict[str, bytes]:
    """The bytes of every file every stats mode writes, read at ``block_rows``."""
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    out.mkdir()
    for name, options in STATS.items():
        assert main(["stats", "--logs", str(log), *options, "--out", str(out / f"{name}.json")]) == 0, name
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def log_file(batch, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "log.jsonl"
    write_log_file(path, batch)
    return path


@pytest.mark.parametrize("block_rows", [7, 61, 1024])
def test_streamed_stats_write_the_whole_log_reports(batch, log_file, tmp_path, block_rows, monkeypatch):
    """The lines of a block of 1,024 end inside the second sequence, which is
    longer than that block; at 7 and 61 rows most sequences are. The stream
    reads the blocks that the blocked passes take over the whole log."""
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    with open(log_file, encoding="utf-8") as handle:
        read = [(int(block.lines[0]) - 1, len(block)) for block in read_log_blocks(handle)]
    assert read == [(lo, hi - lo) for lo, hi in blocks(len(batch), batch.seq_starts)] and len(read) > 2
    whole = stats_reports(log_file, tmp_path / "whole", 10**9, monkeypatch)
    assert len(whole) == len(STATS) + 2  # and the two reliability tables
    assert stats_reports(log_file, tmp_path / "blocks", block_rows, monkeypatch) == whole
    assert json.loads(whole["entropy.json"])["groups"] == {label: {
        "ece": group.ece, "weighted_ece": group.weighted_ece, "count": group.count,
    } for label, group in partitioned_metric(batch, PartitionSpec.entropy(1.2)).items()}


def planted(log_file, tmp_path, bad: dict[int, str]) -> str:
    """The log with two blank lines before it and the lines in ``bad``, by row, replaced."""
    lines = log_file.read_text(encoding="utf-8").splitlines(keepends=True)
    for row, line in bad.items():
        lines[row] = line
    path = tmp_path / "planted.jsonl"
    path.write_text("\n\n" + "".join(lines), encoding="utf-8")
    return str(path)


def read_blocks(path) -> list[LogBatch]:
    with open(path, encoding="utf-8") as handle:
        return list(read_log_blocks(handle))


def third_block_row(log_file, monkeypatch) -> int:
    monkeypatch.setattr(records, "BLOCK_ROWS", 61)
    with open(log_file, encoding="utf-8") as handle:
        firsts = [int(block.lines[0]) - 1 for block in read_log_blocks(handle)]
    return firsts[2] + 3


def test_a_bad_record_in_the_third_block_names_its_line(log_file, tmp_path, monkeypatch):
    row = third_block_row(log_file, monkeypatch)
    record = json.loads(log_file.read_text(encoding="utf-8").splitlines()[row])
    path = planted(log_file, tmp_path, {row: json.dumps(dict(record, gold_id=VOCAB)) + "\n"})
    with open(path, encoding="utf-8") as handle:
        read = []
        with pytest.raises(ValidationError) as caught:
            for block in read_log_blocks(handle):
                read.append(block)
    assert caught.value.field == "gold_id" and caught.value.line_number == row + 3
    assert len(read) == 2
    with pytest.raises(ValidationError) as whole:
        read_log_file(path)
    assert str(whole.value) == str(caught.value)


def test_a_bad_line_after_a_bad_record_reports_the_record(log_file, tmp_path, monkeypatch):
    """In an earlier block, or earlier in the same block, as the whole-log reader does."""
    row = third_block_row(log_file, monkeypatch)
    record = json.loads(log_file.read_text(encoding="utf-8").splitlines()[row])
    bad_record = json.dumps(dict(record, rest_mass=-0.5)) + "\n"
    for record_row, line_row in ((row - 30, row), (row, row + 1), (row, row + 200)):
        path = planted(log_file, tmp_path, {record_row: bad_record, line_row: "{not json\n"})
        for read in (read_blocks, read_log_file):
            with pytest.raises(ValidationError) as caught:
                read(path)
            assert (caught.value.field, caught.value.line_number) == ("rest_mass", record_row + 3)
    path = planted(log_file, tmp_path, {row: "{not json\n"})
    with pytest.raises(ParseError, match=f"line {row + 3}"):
        read_blocks(path)


@pytest.mark.parametrize("later_rows_store_features", [False, True])
def test_the_entropy_split_checks_step_order_once_a_row_lacks_features(
    steps, tmp_path, capsys, monkeypatch, later_rows_store_features,
):
    """The first block stores features and breaks step order. When later
    rows carry only attention, the whole log must be enriched, so its step
    order is checked: a data error, streamed or not. When every row stores
    features, none is derived and the order is not checked."""
    rows = list(enrich_batch(LogBatch.from_records(row for seq in steps for row in seq)))
    rows[5] = replace(rows[5], t=99)
    if not later_rows_store_features:
        rows[len(steps[0]):] = [replace(r, features=None, cum_attention=None) for r in rows[len(steps[0]):]]
    assert all(isinstance(r.features, StepFeatures) for r in rows[: len(steps[0])])
    log = tmp_path / "log.jsonl"
    write_log_file(log, rows)
    spec = PartitionSpec.entropy(1.2)
    monkeypatch.setattr(records, "BLOCK_ROWS", 61)
    rc = main(["stats", "--logs", str(log), "--partition", "entropy:1.2", "--out", str(tmp_path / "p.json")])
    if later_rows_store_features:
        assert rc == 0
        groups = json.loads((tmp_path / "p.json").read_text())["groups"]
        assert {k: g["count"] for k, g in groups.items()} == {
            k: g.count for k, g in partitioned_metric(read_log_file(log), spec).items()}
        return
    assert rc == 2
    assert "sequence 's0' has step 99 where 6 was expected" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="has step 99 where 6 was expected"):
        partitioned_metric(read_log_file(log), spec)


GEN_TASK = ToyTaskSpec.two_way_default(seed=1)  # lengths 4-8, each reference its source length plus EOS
GEN_DISTORTION = DistortionSpec(temperature=0.5, eos_bias=1.5)


def gen(tmp_path, n: int, seed: int, out) -> int:
    GEN_TASK.save(tmp_path / "task.json")
    GEN_DISTORTION.save(tmp_path / "distort.json")
    return main(["toy", "gen", "--spec", str(tmp_path / "task.json"), "--distort", str(tmp_path / "distort.json"),
                 "--n", str(n), "--seed", str(seed), "--logs-out", str(out)])


@pytest.mark.parametrize("block_rows", [7, 61, 1024])
def test_gen_writes_the_whole_log_bytes_at_any_block_size(tmp_path, block_rows, monkeypatch):
    """At 7 rows every block is one sequence, longer than a block; at 61
    and 1,024 the 300 sequences take 38 and 3 blocks."""
    model = distort(build_true_model(GEN_TASK), GEN_DISTORTION)
    whole = emit_log_batch(model, GEN_TASK, 300, seed=9)
    write_log_file(tmp_path / "whole.jsonl", whole)
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    emitted = list(emit_log_blocks(model, GEN_TASK, 300, seed=9))
    assert len(emitted) == {7: 300, 61: 38, 1024: 3}[block_rows]
    assert [seq_id for block in emitted for seq_id in block.seq_ids] == whole.seq_ids
    if block_rows == 7:
        assert max(len(block) for block in emitted) > block_rows
    assert gen(tmp_path, 300, 9, tmp_path / "gen.jsonl") == 0
    assert (tmp_path / "gen.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()


class NaNModel(ToyModel):
    """The true model, with NaN probabilities at step 3 of one source."""

    def __init__(self, spec: ToyTaskSpec, source):
        super().__init__(spec)
        self.source = source

    def step_batch(self, states, prefixes):
        probs, alpha, states = super().step_batch(states, prefixes)
        for i, (state, prefix) in enumerate(zip(states, prefixes)):
            if state == self.source and len(prefix) == 2:
                probs[i] = np.nan
        return probs, alpha, states


def test_gen_failing_in_a_later_block_names_the_sequence_and_keeps_the_target(tmp_path, capsys, monkeypatch):
    pairs = _pairs(GEN_TASK, 300, 9, 0)
    bad = next(i for i, (source, _) in enumerate(pairs) if source == pairs[250][0])  # the first with its source
    monkeypatch.setattr(records, "BLOCK_ROWS", 61)  # 8 sequences a block, so that 30 blocks come first
    assert bad >= 8 * 30
    monkeypatch.setattr(cli, "_load_model", lambda task, distortion: NaNModel(task, pairs[250][0]))
    target = tmp_path / "logs.jsonl"
    target.write_bytes(b"an earlier log\n")
    assert gen(tmp_path, 300, 9, target) == 2
    assert f"sequence 'toy-{bad:06d}' step 3: " in capsys.readouterr().err
    assert target.read_bytes() == b"an earlier log\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["distort.json", "logs.jsonl", "task.json"]
