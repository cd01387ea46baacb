"""Differential tests: the pooled-tail layout against a plain densified reference.

The reference below expands every record to its dense V-vector with
``densify`` and evaluates the recalibration maps token by token, the way the
package did before it pooled the unlisted tail. Random top-K records cover
large vocabularies, gold tokens in the tail, unlisted EOS with and without
tail mass, explicit zero entries, unlisted tokens without tail mass and
fully listed vocabularies.
"""

import json
import math

import numpy as np
import pytest

from seqcal import recalibrate
from seqcal.cli import main
from seqcal.errors import ValidationError
from seqcal.records import (
    StepFeatures,
    TokenRecord,
    densify,
    read_log_file,
    serialize_record,
    validate_record,
    write_log_file,
)
from seqcal.recalibrate import (
    THETA_SIZE,
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

TOL = 1e-12
VOCABS = (2, 3, 7, 21, 32000)


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
    assert 0.0 < variable.entries[2][1] < variable.rest_share()  # EOS damped below the tail


def test_dense_input_is_not_renormalized():
    # a decoder's distribution that sums to 1 + 1e-3: the variable map sees its raw logs
    dense = np.array([0.0, 0.4, 0.25, 0.0, 0.351, 0.0])
    features = StepFeatures(entropy=0.7, coverage=0.2)
    for params in (random_params(5, False), random_params(5, True)):
        active, z, _ = ref_dense_logits(dense, 4, features, params)
        expected = np.zeros(6)
        expected[active] = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        got = recalibrate.recalibrate_distribution(dense, 0.7, 0.2, 4, params)
        np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)
        assert got[[0, 3, 5]].tolist() == [0.0, 0.0, 0.0]
        renormalized = recalibrate.recalibrate_distribution(dense / dense.sum(), 0.7, 0.2, 4, params)
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
