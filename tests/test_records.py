import json
import math

import numpy as np
import pytest

from seqcal.errors import ParseError, ValidationError
from seqcal.records import (
    _ROWS_PER_CHUNK,
    BinningConfig,
    LogBatch,
    StepFeatures,
    TokenRecord,
    densify,
    pooled_layout,
    parse_log_line,
    serialize_record,
    validate_record,
    write_log_file,
)

from conftest import make_record, random_simplex


def line_for(payload):
    return json.dumps(payload)


BASE = {
    "seq_id": "s1",
    "t": 1,
    "vocab_size": 3,
    "eos_id": 2,
    "gold_id": 0,
    "entries": [[0, 0.4], [1, 0.1], [2, 0.5]],
    "rest_mass": 0.0,
}


class TestParse:
    def test_three_entry_distribution(self):
        record = parse_log_line(line_for(BASE))
        assert len(record.entries) == 3
        assert math.fsum(p for _, p in record.entries) == pytest.approx(1.0, abs=1e-12)

    def test_single_entry_one_hot(self):
        payload = dict(BASE, vocab_size=8, entries=[[7, 1.0]], gold_id=7, eos_id=7)
        record = parse_log_line(line_for(payload))
        assert record.entries == ((7, 1.0),)

    def test_probabilities_short_of_one_rejected(self):
        payload = dict(BASE, entries=[[0, 0.4], [1, 0.1], [2, 0.43]])
        with pytest.raises(ValidationError) as err:
            parse_log_line(line_for(payload))
        assert err.value.field == "entries"

    def test_malformed_json_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_log_line('{"seq_id": "x", ', line_number=7)
        assert err.value.line_number == 7
        assert err.value.offset is not None

    def test_missing_field_is_parse_error(self):
        payload = dict(BASE)
        del payload["gold_id"]
        with pytest.raises(ParseError):
            parse_log_line(line_for(payload))

    def test_duplicate_token_ids_rejected(self):
        payload = dict(BASE, entries=[[0, 0.5], [0, 0.5]])
        with pytest.raises(ValidationError) as err:
            parse_log_line(line_for(payload))
        assert err.value.field == "entries"

    def test_token_id_out_of_range_rejected(self):
        payload = dict(BASE, entries=[[0, 0.5], [3, 0.5]])
        with pytest.raises(ValidationError):
            parse_log_line(line_for(payload))

    def test_attention_must_normalize(self):
        payload = dict(BASE, attention=[0.5, 0.4])
        with pytest.raises(ValidationError) as err:
            parse_log_line(line_for(payload))
        assert err.value.field == "attention"

    def test_cum_attention_below_attention_rejected(self):
        payload = dict(BASE, attention=[0.6, 0.4], cum_attention=[0.6, 0.3])
        with pytest.raises(ValidationError) as err:
            parse_log_line(line_for(payload))
        assert err.value.field == "cum_attention"

    def test_cum_attention_length_mismatch_rejected(self):
        payload = dict(BASE, attention=[0.6, 0.4], cum_attention=[0.6, 0.4, 0.1])
        with pytest.raises(ValidationError):
            parse_log_line(line_for(payload))

    def test_gold_out_of_range_rejected(self):
        payload = dict(BASE, gold_id=5)
        with pytest.raises(ValidationError) as err:
            parse_log_line(line_for(payload))
        assert err.value.field == "gold_id"

    def test_infinite_entropy_rejected_with_line(self):
        line = '{"seq_id": "s1", "t": 1, "vocab_size": 3, "eos_id": 2, "gold_id": 0, ' \
               '"entries": [[0, 0.4], [1, 0.1], [2, 0.5]], "rest_mass": 0.0, ' \
               '"features": {"entropy": Infinity, "coverage": 0.5}}'
        with pytest.raises(ValidationError, match="line 4: features: entropy must be finite") as err:
            parse_log_line(line, line_number=4)
        assert err.value.field == "features" and err.value.line_number == 4

    def test_nan_coverage_rejected(self):
        payload = dict(BASE, features={"entropy": 0.5, "coverage": float("nan")})
        with pytest.raises(ValidationError, match="coverage outside"):
            parse_log_line(line_for(payload), line_number=2)

    def test_infinite_cum_attention_rejected_with_line(self):
        line = line_for(dict(BASE)).replace('"rest_mass": 0.0', '"rest_mass": 0.0, "cum_attention": [Infinity]')
        with pytest.raises(ValidationError, match="line 9: cum_attention: weights must be finite") as err:
            parse_log_line(line, line_number=9)
        assert err.value.field == "cum_attention"

    def test_nan_attention_rejected(self):
        payload = dict(BASE, attention=[float("nan"), 1.0])
        with pytest.raises(ValidationError, match="attention: weights must be finite"):
            parse_log_line(line_for(payload))

    def test_infinite_integer_field_is_parse_error_with_line(self):
        line = line_for(dict(BASE)).replace('"t": 1', '"t": Infinity')
        with pytest.raises(ParseError) as err:
            parse_log_line(line, line_number=6)
        assert err.value.line_number == 6

    def test_rest_mass_with_every_token_listed_rejected_with_line(self):
        payload = dict(BASE, entries=[[0, 0.4], [1, 0.1], [2, 0.4999995]], rest_mass=5e-7)
        with pytest.raises(ValidationError, match="line 3: rest_mass: .* left over with all 3 tokens listed") as err:
            parse_log_line(line_for(payload), line_number=3)
        assert err.value.field == "rest_mass"


class TestRoundTrip:
    def test_serialize_parse_identity(self, rng):
        for i in range(50):
            vocab = int(rng.integers(2, 12))
            probs = random_simplex(rng, vocab)
            keep = rng.random(vocab) < 0.7
            keep[int(rng.integers(vocab))] = True
            entries = tuple((int(j), float(probs[j])) for j in range(vocab) if keep[j])
            rest = float(probs[~keep].sum())
            k = int(rng.integers(1, 6))
            alpha = random_simplex(rng, k)
            record = make_record(
                dict(entries),
                gold=int(rng.integers(vocab)),
                seq_id=f"seq-{i}",
                t=int(rng.integers(1, 9)),
                vocab_size=vocab,
                rest_mass=rest,
                attention=alpha if i % 2 == 0 else None,
                cum_attention=alpha if i % 2 == 0 else None,
            )
            validate_record(record)
            assert parse_log_line(serialize_record(record)) == record


def oracle_line(record: TokenRecord) -> str:
    """A record's line as the dict-per-row writer built it: one ``json.dumps``
    of a payload dict, the bytes the columnar writer must reproduce."""
    payload: dict = {
        "seq_id": record.seq_id,
        "t": record.t,
        "vocab_size": record.vocab_size,
        "eos_id": record.eos_id,
        "gold_id": record.gold_id,
        "entries": [[i, p] for i, p in record.entries],
        "rest_mass": record.rest_mass,
    }
    if record.attention is not None:
        payload["attention"] = list(record.attention)
    if record.cum_attention is not None:
        payload["cum_attention"] = list(record.cum_attention)
    if record.features is not None:
        payload["features"] = {"entropy": record.features.entropy, "coverage": record.features.coverage}
    return json.dumps(payload, separators=(",", ":")) + "\n"


ODD_FLOATS = (-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0 / 3.0, 1e-7, 123456789.125)
NON_FINITE = (math.nan, math.inf, -math.inf)
ODD_IDS = ("s", "séquence-ü", "日本語", 'say "hi"', "back\\slash", "tab\there", "emoji-\U0001F600", "")


def writer_log(rng, rows: int, values=ODD_FLOATS, seq_ids=ODD_IDS) -> list[TokenRecord]:
    """Unvalidated records whose optional fields come and go row by row,
    drawing odd floats, odd seq_ids and empty entries."""
    pick = lambda: values[int(rng.integers(len(values)))] if rng.random() < 0.3 else float(rng.random())
    vector = lambda: tuple(pick() for _ in range(int(rng.integers(1, 5)))) if rng.random() < 0.5 else None
    out, t = [], 0
    seq_id = seq_ids[0]
    for _ in range(rows):
        if rng.random() < 0.2:
            seq_id, t = seq_ids[int(rng.integers(len(seq_ids)))], 0
        t += 1
        k = int(rng.integers(0, 4))  # 0: empty entries
        out.append(TokenRecord(
            seq_id=seq_id, t=t, vocab_size=50, eos_id=int(rng.integers(50)), gold_id=int(rng.integers(50)),
            entries=tuple((int(i), pick()) for i in rng.choice(50, k, replace=False)), rest_mass=pick(),
            attention=vector(), cum_attention=vector(),
            features=StepFeatures(pick(), pick()) if rng.random() < 0.5 else None,
        ))
    return out


class TestWriter:
    """The columnar writer writes the bytes of one ``json.dumps`` per row."""

    @pytest.mark.parametrize("rows", [0, 1, 7, _ROWS_PER_CHUNK, _ROWS_PER_CHUNK + 1, 2 * _ROWS_PER_CHUNK + 5])
    @pytest.mark.parametrize("values", [ODD_FLOATS, ODD_FLOATS + NON_FINITE], ids=["finite", "non-finite"])
    def test_batch_and_records_write_the_oracle_bytes(self, rng, tmp_path, rows, values):
        log = writer_log(rng, rows, values)
        want = "".join(map(oracle_line, log)).encode("ascii")
        for name, source in (("batch", LogBatch.from_records(log)), ("list", log), ("generator", iter(log))):
            write_log_file(tmp_path / name, source)
            assert (tmp_path / name).read_bytes() == want, name

    def test_serialize_record_is_the_oracle_line(self, rng):
        for record in writer_log(rng, 200, ODD_FLOATS + NON_FINITE):
            assert serialize_record(record) + "\n" == oracle_line(record)

    def test_empty_entries_and_every_optional_field_absent(self, tmp_path):
        record = TokenRecord(seq_id='q"\\', t=1, vocab_size=4, eos_id=3, gold_id=0, entries=(), rest_mass=1.0)
        assert serialize_record(record) == (
            '{"seq_id":"q\\"\\\\","t":1,"vocab_size":4,"eos_id":3,"gold_id":0,"entries":[],"rest_mass":1.0}'
        )
        assert parse_log_line(serialize_record(record)) == record

    def test_records_become_a_batch_a_block_at_a_time(self, rng, tmp_path):
        """A stream that fails one row into its second block leaves the first
        block written: no whole list of records was drawn first."""
        log = writer_log(rng, _ROWS_PER_CHUNK + 1)

        def records():
            yield from log
            raise RuntimeError("stream broke")

        with pytest.raises(RuntimeError, match="stream broke"):
            write_log_file(tmp_path / "log", records())
        assert (tmp_path / "log").read_bytes() == "".join(map(oracle_line, log[:_ROWS_PER_CHUNK])).encode("ascii")


class TestDensify:
    def test_fully_listed_distribution(self):
        record = make_record([0.4, 0.1, 0.5], gold=0)
        np.testing.assert_allclose(densify(record), [0.4, 0.1, 0.5], atol=1e-15)

    def test_rest_mass_spread_uniformly(self):
        record = make_record({2: 0.8}, gold=2, vocab_size=4, rest_mass=0.2)
        expected = [0.2 / 3, 0.2 / 3, 0.8, 0.2 / 3]
        np.testing.assert_allclose(densify(record), expected, atol=1e-15)

    def test_one_hot_identity(self):
        record = make_record({0: 1.0}, gold=0, vocab_size=2)
        np.testing.assert_allclose(densify(record), [1.0, 0.0], atol=0)

    def test_leftover_mass_with_full_vocabulary_rejected(self):
        record = make_record([0.25, 0.25], gold=0, rest_mass=0.5)
        with pytest.raises(ValidationError):
            densify(record)

    def test_densify_equals_the_pooled_layout_bit_for_bit(self):
        """Sparse equals densified exactly: 2,000 random records, V 12-59 and
        1-9 entries, EOS listed or not, against one layout of all of them."""
        rng = np.random.default_rng(0)
        records = []
        for i in range(2000):
            vocab, k = int(rng.integers(12, 60)), int(rng.integers(1, 10))
            ids = rng.choice(vocab, k, replace=False)
            mass = rng.dirichlet(np.ones(k + 1))
            records.append(TokenRecord(
                seq_id=f"s{i}", t=1, vocab_size=vocab, eos_id=vocab - 1, gold_id=int(ids[0]),
                entries=tuple(zip(ids.tolist(), mass[:k].tolist())), rest_mass=float(mass[k]),
            ))
        layout = pooled_layout(records)
        for i, record in enumerate(records):
            dense = densify(record)
            listed = [j for j, _ in record.entries]
            assert np.array_equal(dense[listed], layout.prob[i, : len(listed)]), i
            tail = np.delete(dense, listed)
            assert np.array_equal(tail, np.full(len(tail), layout.prob[i, -1])), i

    def test_densify_sums_to_one_and_nonnegative(self, rng):
        for _ in range(100):
            vocab = int(rng.integers(2, 40))
            probs = random_simplex(rng, vocab)
            listed = int(rng.integers(1, vocab))
            entries = {int(j): float(probs[j]) for j in range(listed)}
            rest = float(probs[listed:].sum())
            record = make_record(entries, gold=0, vocab_size=vocab, rest_mass=rest)
            dense = densify(record)
            assert abs(dense.sum() - 1.0) < 1e-9
            assert np.all(dense >= 0)


class TestSequences:
    def test_step_gap_rejected(self):
        records = [
            make_record([1.0], gold=0, seq_id="a", t=1),
            make_record([1.0], gold=0, seq_id="a", t=3),
        ]
        with pytest.raises(ValidationError):
            LogBatch.from_records(records).check_step_order()


class TestBinning:
    def test_left_closed_right_open_last_closed(self):
        bins = BinningConfig(20)
        assert bins.index_array(np.array([0.0, 0.05, 0.9999, 1.0])).tolist() == [0, 1, 19, 19]

    def test_edges(self):
        bins = BinningConfig(10)
        assert bins.edges(0) == (0.0, 0.1)
        assert bins.edges(9) == (0.9, 1.0)

    def test_must_have_bins(self):
        with pytest.raises(ValidationError):
            BinningConfig(0)

