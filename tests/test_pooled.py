"""Differential tests: the pooled-tail layout against a plain densified reference.

The reference below expands every record to its dense V-vector with
``densify`` and evaluates the recalibration maps and the metrics token by
token, the way the package did before it pooled the unlisted tail. Random
top-K records cover large vocabularies, gold tokens in the tail, unlisted
EOS with and without tail mass, explicit zero entries, unlisted tokens
without tail mass, fully listed vocabularies, and tail shares tying the
best listed probability.
"""

import json
import math

import numpy as np
import pytest

from seqcal import recalibrate
from seqcal.cli import main
from seqcal.errors import ModelError, ValidationError
from seqcal.features import attention_entropy, coverage
from seqcal.metrics import PartitionSpec, ece, head_tail_curve, partitioned_metric, top1, weighted_ece
from seqcal.records import (
    BinningConfig,
    StepFeatures,
    TokenRecord,
    densify,
    parse_log_line,
    read_log_file,
    serialize_record,
    validate_record,
    write_log_file,
)
from seqcal.recalibrate import (
    THETA_SIZE,
    CalibratedModel,
    CalibratorParams,
    SingleTemperature,
    apply_calibrator,
    apply_single_temperature,
    calibration_gradient,
    calibration_nll,
    recalibrate_log,
    save_params,
    single_temperature_nll,
)
from seqcal.sequence import ScoringModel

TOL = 1e-12
VOCABS = (2, 3, 7, 21, 32000)


def rest_share(record):
    """The stored probability of each unlisted token."""
    return record.rest_mass / (record.vocab_size - len(record.entries))


def random_record(rng, index, vocab=None):
    vocab = int(rng.choice(VOCABS)) if vocab is None else vocab
    eos = int(rng.integers(vocab))
    if vocab <= 21 and rng.random() < 0.2:
        ids = rng.permutation(vocab)  # every token listed
    else:
        k = int(rng.integers(0, min(vocab - 1, 12) + 1))
        ids = rng.choice(vocab, k, replace=False)
        if rng.random() < 0.5:
            ids = ids[ids != eos]  # force EOS into the tail
    listed_all = len(ids) == vocab
    tail_mass = 0.0 if listed_all or rng.random() < 0.3 else float(rng.uniform(0.01, 0.6))
    if len(ids) == 0:
        tail_mass = 1.0
    probs = rng.dirichlet(np.full(len(ids), 0.7)) if len(ids) else np.zeros(0)
    probs[rng.random(len(ids)) < 0.2] = 0.0  # explicit zero entries
    if probs.sum() == 0.0:
        if tail_mass == 0.0:
            probs[0] = 1.0
        else:
            tail_mass = 1.0
    if probs.sum() > 0.0:
        probs = probs / probs.sum() * (1.0 - tail_mass)

    listed = set(ids.tolist())
    candidates = [int(i) for i, p in zip(ids, probs) if p > 0]
    if tail_mass > 0.0 and (not candidates or rng.random() < 0.5):
        tail_gold = int(rng.integers(vocab))
        while tail_gold in listed:
            tail_gold = int(rng.integers(vocab))
        candidates = [tail_gold]
        if eos not in listed and rng.random() < 0.3:
            candidates = [eos]  # gold is an unlisted EOS
    gold = int(rng.choice(candidates))
    return TokenRecord(
        seq_id=f"r{index}",
        t=1,
        vocab_size=vocab,
        eos_id=eos,
        gold_id=gold,
        entries=tuple((int(i), float(p)) for i, p in zip(ids, probs)),
        rest_mass=tail_mass,
        features=StepFeatures(entropy=float(rng.uniform(0.0, 2.5)), coverage=float(rng.uniform(0.0, 1.0))),
    )


def random_records(seed, n=60):
    rng = np.random.default_rng(seed)
    records = [random_record(rng, i) for i in range(n)]
    for record in records:
        validate_record(record)
    return records


def tie_record(rng, index):
    """A record whose tail share equals its best listed probability, bit for bit."""
    vocab = int(rng.choice((3, 7, 21)))
    k = int(rng.integers(1, vocab))
    ids = rng.choice(vocab, k, replace=False).tolist()
    unlisted = vocab - k
    rest = unlisted / (unlisted + 1 + 0.37 * (k - 1))
    top = rest / unlisted  # the share densify gives each unlisted token
    probs = [top] + [(1.0 - rest - top) / max(k - 1, 1)] * (k - 1)
    return TokenRecord(
        seq_id=f"tie{index}",
        t=1,
        vocab_size=vocab,
        eos_id=int(rng.integers(vocab)),
        gold_id=int(rng.integers(vocab)),
        entries=tuple(zip(ids, probs)),
        rest_mass=rest,
        features=StepFeatures(entropy=float(rng.uniform(0.0, 2.5)), coverage=float(rng.uniform(0.0, 1.0))),
    )


def metric_records(seed):
    """The random records plus records whose tail ties the best listed entry."""
    rng = np.random.default_rng(1000 + seed)
    records = random_records(seed) + [tie_record(rng, i) for i in range(15)]
    for record in records:
        validate_record(record)
    return records


def random_params(seed, plus_one):
    rng = np.random.default_rng(seed)
    theta = np.concatenate([[float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.0, 1.0))],
                            rng.uniform(-0.8, 0.8, THETA_SIZE - 2)])
    return CalibratorParams.from_flat(theta, plus_one)


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------


def ref_log_sigmoid(u):
    return -math.log1p(math.exp(-u)) if u >= 0 else u - math.log1p(math.exp(u))


def ref_logits(record, params):
    """Active token ids, their recalibrated logits and what the gradient needs."""
    return ref_dense_logits(densify(record), record.eos_id, record.features, params)


def ref_dense_logits(dense, eos_id, features, params):
    active = np.flatnonzero(dense > 0)
    lp = np.log(dense[active])
    if isinstance(params, SingleTemperature):
        return active, lp / params.temperature, None
    offset = 1.0 if params.plus_one else 0.0
    u = params.w1 * (features.coverage - params.w2)
    eos_pos = np.flatnonzero(active == eos_id)
    lp[eos_pos] += ref_log_sigmoid(u)
    g_out, g_cache = params.g_net.forward(np.array([features.entropy]))
    gf = g_out[0] + offset
    h_out, h_cache = params.h_net.forward(lp)
    hf = h_out + offset
    return active, lp * gf * hf, (u, eos_pos, lp, gf, hf, g_cache, h_cache)


def ref_apply(record, params):
    active, z, _ = ref_logits(record, params)
    e = np.exp(z - z.max())
    out = np.zeros(record.vocab_size)
    out[active] = e / e.sum()
    return out


def ref_nll_and_grad(records, params):
    """Mean gold NLL and, for the variable map, its gradient, one dense record at a time."""
    losses = []
    grad = np.zeros(THETA_SIZE)
    for record in records:
        active, z, cache = ref_logits(record, params)
        m = z.max()
        e = np.exp(z - m)
        gold_pos = int(np.flatnonzero(active == record.gold_id)[0])
        losses.append(m + math.log(e.sum()) - z[gold_pos])
        if cache is None:
            continue
        u, eos_pos, lp, gf, hf, g_cache, h_cache = cache
        r = e / e.sum()
        r[gold_pos] -= 1.0
        g_grads, _ = params.g_net.backward(g_cache, np.array([np.sum(r * lp * hf)]))
        h_grads, d_inputs = params.h_net.backward(h_cache, r * lp * gf)
        dlp = r * gf * hf + d_inputs
        sig = 1.0 / (1.0 + math.exp(-u)) if u >= 0 else math.exp(u) / (1.0 + math.exp(u))
        du = float(dlp[eos_pos].sum()) * (1.0 - sig)
        grad += np.concatenate([[du * (record.features.coverage - params.w2), -du * params.w1],
                                g_grads, h_grads])
    return float(np.mean(losses)), grad / len(records)


def ref_top1(record):
    dense = densify(record)
    pred = int(np.argmax(dense))
    return pred, float(dense[pred])


def ref_top1_items(record):
    """Bin key, weight, confidence, accuracy and gap of a record's top-1 item."""
    pred, conf = ref_top1(record)
    correct = float(pred == record.gold_id)
    return np.array([[conf, 1.0, conf, correct, correct - conf]])


def ref_weighted_items(record):
    """One item per token with positive probability."""
    dense = densify(record)
    tokens = np.flatnonzero(dense > 0)
    p = dense[tokens]
    correct = (tokens == record.gold_id).astype(float)
    return np.stack([p, p, p * p, p * correct, p * (correct - p)], axis=1)


def ref_metric(records, bins, items):
    """Score and (weight, confidence, accuracy) bin sums, summed token by token."""
    rows = np.concatenate([items(record) for record in records])
    index = bins.index_array(rows[:, 0])
    sums = np.array([[math.fsum(rows[index == b, c]) for c in range(1, 5)] for b in range(bins.num_bins)])
    return math.fsum(np.abs(sums[:, 3])) / len(records), sums[:, :3]


def assert_metric_matches(got, records, bins, items):
    score, hist = got
    ref_score, ref_sums = ref_metric(records, bins, items)
    assert score == pytest.approx(ref_score, abs=TOL)
    for column, sums in enumerate((hist.weight, hist.confidence_sum, hist.accuracy_sum)):
        np.testing.assert_allclose(sums, ref_sums[:, column], rtol=0, atol=TOL)
    assert hist.count == len(records)


def nll_records(records):
    """Records whose gold token has positive probability: the NLL is finite."""
    return [r for r in records if densify(r)[r.gold_id] > 0]


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------


def test_generator_covers_every_case():
    records = [r for seed in range(4) for r in random_records(seed)]
    listed = [{i for i, _ in r.entries} for r in records]
    assert any(r.vocab_size == 32000 for r in records)
    assert any(r.gold_id not in ids for r, ids in zip(records, listed))
    assert any(r.eos_id not in ids and r.rest_mass > 0 for r, ids in zip(records, listed))
    assert any(r.eos_id not in ids and r.rest_mass == 0 for r, ids in zip(records, listed))
    assert any(any(p == 0.0 for _, p in r.entries) for r in records)
    assert any(r.rest_mass == 0 and len(ids) < r.vocab_size for r, ids in zip(records, listed))
    assert any(len(ids) == r.vocab_size for r, ids in zip(records, listed))
    assert any(r.gold_id == r.eos_id and r.eos_id not in ids for r, ids in zip(records, listed))


def test_generator_covers_tail_ties_on_both_sides():
    ties = [r for seed in range(4) for r in metric_records(seed) if r.seq_id.startswith("tie")]
    below = above = 0
    for record in ties:
        best_id = record.entries[0][0]
        first_free = min(set(range(record.vocab_size)) - {i for i, _ in record.entries})
        assert record.entries[0][1] == rest_share(record)
        assert max(p for _, p in record.entries) == rest_share(record)
        below += first_free < best_id
        above += first_free > best_id
    assert below and above


@pytest.mark.parametrize("seed", range(4))
def test_metrics_match_dense(seed):
    records = metric_records(300 + seed)
    for bins in (BinningConfig(20), BinningConfig(7)):
        assert_metric_matches(ece(records, bins), records, bins, ref_top1_items)
        assert_metric_matches(weighted_ece(records, bins), records, bins, ref_weighted_items)
    for record in records:
        pred, conf = top1(record)
        ref_pred, ref_conf = ref_top1(record)
        assert pred == ref_pred
        assert conf == pytest.approx(ref_conf, abs=TOL)

    tokens = np.concatenate([ref_weighted_items(record) for record in records])
    p, correct = tokens[:, 0], tokens[:, 3] / tokens[:, 0]
    thresholds = [0.05, 0.2, 0.5, 1.0]
    for row, t in zip(head_tail_curve(records, thresholds), thresholds):
        tail = p < t
        assert row["threshold"] == t
        assert row["tail_conf_sum"] == pytest.approx(math.fsum(p[tail]), abs=TOL)
        assert row["tail_acc_sum"] == math.fsum(correct[tail])
        assert row["head_conf_sum"] == pytest.approx(math.fsum(p[~tail]), abs=TOL)
        assert row["head_acc_sum"] == math.fsum(correct[~tail])


@pytest.mark.parametrize("seed", range(4))
def test_partitions_match_dense(seed):
    records = metric_records(400 + seed)
    bins = BinningConfig(10)
    cases = (
        (PartitionSpec.eos(), lambda r: "eos" if ref_top1(r)[0] == r.eos_id else "rest"),
        (PartitionSpec.token(0), lambda r: "token:0" if ref_top1(r)[0] == 0 else "rest"),
        (PartitionSpec.entropy(1.2), lambda r: "high" if r.features.entropy >= 1.2 else "low"),
        (PartitionSpec.confidence(0.4), lambda r: "head" if ref_top1(r)[1] >= 0.4 else "tail"),
    )
    for spec, label_of in cases:
        groups = partitioned_metric(records, spec, bins)
        assert sum(g.count for g in groups.values()) == len(records)
        for label, group in groups.items():
            members = [r for r in records if label_of(r) == label]
            assert group.count == len(members)
            if not members:
                assert group.ece is None and group.weighted_ece is None
                continue
            assert group.ece == pytest.approx(ref_metric(members, bins, ref_top1_items)[0], abs=TOL)
            assert group.weighted_ece == pytest.approx(ref_metric(members, bins, ref_weighted_items)[0], abs=TOL)


def test_slightly_negative_rest_mass_pools_nothing():
    line = ('{"seq_id":"a","t":1,"vocab_size":3,"eos_id":2,"gold_id":1,'
            '"entries":[[0,1.0000005]],"rest_mass":-5e-7}')
    record = parse_log_line(line)
    dense = densify(record)
    assert np.all(dense >= 0.0)
    assert dense.sum() == pytest.approx(1.0, abs=1e-12)
    bins = BinningConfig()
    for metric, items in ((ece, ref_top1_items), (weighted_ece, ref_weighted_items)):
        score, _ = metric([record], bins)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(ref_metric([record], bins, items)[0], abs=TOL)


class Vocabulary(ScoringModel):
    """A vocabulary size and an EOS id: all that ``CalibratedModel.rescore``
    reads of the model it wraps."""

    vocab_size = eos_id = None

    def __init__(self, vocab_size, eos_id):
        self.vocab_size, self.eos_id = vocab_size, eos_id

    def start(self, source):
        return None

    def step(self, state, prefix):
        raise NotImplementedError


ALPHA, CUM = np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.3, 1.2])  # a decoder step's attention


def test_distribution_without_positive_probability_raises():
    for params in (SingleTemperature(1.0), random_params(0, False)):
        model = CalibratedModel(Vocabulary(4, 3), params)
        with pytest.raises(ModelError, match="no positive probability"):
            model.rescore(np.zeros(4), ALPHA, CUM)
        with pytest.raises(ModelError, match="no positive probability"):  # one row of a batch
            model.rescore(np.array([[0.5, 0.5, 0.0, 0.0], [0.0] * 4]), np.array([ALPHA] * 2), np.array([CUM] * 2))


@pytest.mark.parametrize("seed", range(4))
def test_temperature_nll_matches_dense(seed):
    records = nll_records(random_records(seed))
    for temperature in (0.3, 1.0, 1.4, 7.0):
        ref, _ = ref_nll_and_grad(records, SingleTemperature(temperature))
        assert single_temperature_nll(records, temperature) == pytest.approx(ref, abs=TOL)


@pytest.mark.parametrize("seed", range(4))
def test_variable_nll_and_gradient_match_dense(seed):
    records = nll_records(random_records(100 + seed))
    for plus_one in (False, True):
        params = random_params(seed, plus_one)
        ref_value, ref_grad = ref_nll_and_grad(records, params)
        assert calibration_nll(records, params) == pytest.approx(ref_value, abs=TOL)
        np.testing.assert_allclose(calibration_gradient(params, records), ref_grad, rtol=0, atol=TOL)


@pytest.mark.parametrize("seed", range(4))
def test_apply_matches_dense_in_both_modes(seed, monkeypatch):
    monkeypatch.setattr(recalibrate, "APPLY_BLOCK", 7)  # several blocks, one of them short
    records = random_records(200 + seed)
    for params in (SingleTemperature(0.6), SingleTemperature(2.5),
                   random_params(seed, False), random_params(seed, True)):
        rewritten = recalibrate_log(records, params)
        for record, new in zip(records, rewritten):
            validate_record(new)
            reference = ref_apply(record, params)
            np.testing.assert_allclose(densify(new), reference, rtol=0, atol=TOL)
            assert len(new.entries) <= len(record.entries) + 1
            assert [i for i, _ in new.entries[: len(record.entries)]] == [i for i, _ in record.entries]
            if isinstance(params, SingleTemperature):
                np.testing.assert_allclose(apply_single_temperature(record, params.temperature),
                                           reference, rtol=0, atol=TOL)
            else:
                np.testing.assert_allclose(apply_calibrator(record, params), reference, rtol=0, atol=TOL)


def test_unlisted_eos_gains_an_entry_only_when_it_moves():
    record = TokenRecord(seq_id="s", t=1, vocab_size=50, eos_id=7, gold_id=1,
                         entries=((1, 0.5), (2, 0.3)), rest_mass=0.2,
                         features=StepFeatures(entropy=0.5, coverage=0.1))
    (single,) = recalibrate_log([record], SingleTemperature(1.7))
    assert [i for i, _ in single.entries] == [1, 2]
    (variable,) = recalibrate_log([record], random_params(0, False))
    assert [i for i, _ in variable.entries] == [1, 2, 7]
    assert 0.0 < variable.entries[2][1] < rest_share(variable)  # EOS damped below the tail


def test_dense_input_is_not_renormalized():
    # a decoder's distribution that sums to 1 + 1e-3: the variable map sees its raw logs
    dense = np.array([0.0, 0.4, 0.25, 0.0, 0.351, 0.0])
    features = StepFeatures(entropy=attention_entropy(ALPHA), coverage=coverage(CUM))
    for params in (random_params(5, False), random_params(5, True)):
        model = CalibratedModel(Vocabulary(6, 4), params)
        active, z, _ = ref_dense_logits(dense, 4, features, params)
        expected = np.zeros(6)
        expected[active] = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        got = model.rescore(dense, ALPHA, CUM)
        np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)
        assert got[[0, 3, 5]].tolist() == [0.0, 0.0, 0.0]
        renormalized = model.rescore(dense / dense.sum(), ALPHA, CUM)
        assert np.abs(got - renormalized).max() > 1e-6


def test_rest_mass_with_every_token_listed_rejected():
    record = TokenRecord(seq_id="s", t=1, vocab_size=2, eos_id=1, gold_id=0,
                         entries=((0, 0.5), (1, 0.5)), rest_mass=5e-7)
    with pytest.raises(ValidationError, match="rest_mass"):
        recalibrate_log([record], SingleTemperature(1.0))
    with pytest.raises(ValidationError, match="rest_mass"):
        single_temperature_nll([record], 1.0)


# ---------------------------------------------------------------------------
# CLI: apply keeps a V=32000 log sparse
# ---------------------------------------------------------------------------


def sparse_log_records(n=12, vocab=32000, top_k=10, seed=5):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        tail = float(rng.uniform(0.02, 0.3))
        ids = rng.choice(np.arange(1, vocab), top_k, replace=False)
        if i % 4 == 3:
            ids[0] = 0  # a listed EOS
        probs = rng.dirichlet(np.full(top_k, 0.4)) * (1.0 - tail)
        gold = int(ids[0]) if i % 3 else int(rng.integers(top_k + 1, vocab))
        if gold in ids:
            gold = int(ids[1])
        records.append(TokenRecord(
            seq_id=f"s{i}", t=1, vocab_size=vocab, eos_id=0, gold_id=gold,
            entries=tuple((int(j), float(p)) for j, p in zip(ids, probs)), rest_mass=tail,
            features=StepFeatures(entropy=float(rng.uniform(0, 2)), coverage=float(rng.uniform(0, 1))),
        ))
    return records


@pytest.mark.parametrize("mode", ["single", "variable"])
def test_cli_apply_writes_sparse_lines_matching_dense_rewrite(tmp_path, mode):
    records = sparse_log_records()
    logs = tmp_path / "sparse.jsonl"
    write_log_file(logs, records)
    params = SingleTemperature(1.4) if mode == "single" else random_params(3, False)
    params_path = tmp_path / "params.json"
    save_params(params_path, params)

    recal = tmp_path / "recal.jsonl"
    assert main(["apply", "--logs", str(logs), "--params", str(params_path), "--logs-out", str(recal)]) == 0
    lines = recal.read_text().splitlines()
    assert len(lines) == len(records)
    for line in lines:
        assert len(json.loads(line)["entries"]) <= 10 + 1
    assert len(read_log_file(recal)) == len(records)

    dense_path = tmp_path / "dense.jsonl"
    with open(dense_path, "w", encoding="utf-8") as handle:
        for record in records:
            dense = ref_apply(record, params)
            nonzero = np.flatnonzero(dense)
            rewritten = TokenRecord(
                seq_id=record.seq_id, t=record.t, vocab_size=record.vocab_size, eos_id=record.eos_id,
                gold_id=record.gold_id, entries=tuple((int(j), float(dense[j])) for j in nonzero),
                rest_mass=0.0, features=record.features,
            )
            handle.write(serialize_record(rewritten) + "\n")

    sparse_out, dense_out = tmp_path / "sparse.json", tmp_path / "dense.json"
    assert main(["stats", "--logs", str(recal), "--weighted", "--out", str(sparse_out)]) == 0
    assert main(["stats", "--logs", str(dense_path), "--weighted", "--out", str(dense_out)]) == 0
    sparse_report, dense_report = json.loads(sparse_out.read_text()), json.loads(dense_out.read_text())
    assert sparse_report["score"] == pytest.approx(dense_report["score"], abs=TOL)
    assert sparse_report["ece"] == pytest.approx(dense_report["ece"], abs=TOL)
