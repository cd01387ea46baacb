"""The variable calibrator's hidden-major, flat-index path against the
row-major code it replaced.

The references below are copies of the row-major ``ScalarNet`` math and of
``_forward``, ``_softmax`` and the backward pass as they ran on boolean
masks over the (N, W) layout. The nets' matrix products now sum in another
order, so the variable path must agree within rounding; the softmax row
sums did not move, so the single temperature must agree bit for bit. Two
logs: the toy validation log of the benchmark's fit (W = 5), and sparse
top-K records with K up to 12 (W = 14), whose row sums take numpy's
pairwise path.
"""

import math

import numpy as np
import pytest

from seqcal import recalibrate
from seqcal.records import LogBatch, StepFeatures, TokenRecord, validate_record
from seqcal.recalibrate import (
    CalibratorParams,
    SingleTemperature,
    TrainConfig,
    _fit_pool,
    _forward_backward,
    _softmax,
    fit_calibrator,
    initial_params,
    log_sigmoid,
    recalibrate_log,
    sigmoid,
    single_temperature_nll,
)
from seqcal.toybench import DistortionSpec, ToyTaskSpec, build_true_model, distort, emit_log_batch

from test_batch import SEED, derived_seed

EPOCHS = 2000

# ---------------------------------------------------------------------------
# Row-major reference
# ---------------------------------------------------------------------------


def ref_net_forward(net, x):
    z1 = x[:, None] * net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.w2.T + net.b2
    a2 = np.maximum(z2, 0.0)
    out = sigmoid(a2 @ net.w3 + net.b3)
    return out, (x, a1, a2, out)


def ref_net_backward(net, cache, dout):
    x, a1, a2, out = cache
    m1, m2 = a1 > 0, a2 > 0
    dz3 = dout * out * (1.0 - out)
    dz2 = (dz3[:, None] * net.w3) * m2
    dz1 = (dz2 @ net.w2) * m1
    grads = np.concatenate([dz1.T @ x, dz1.sum(axis=0), (dz2.T @ a1).reshape(-1),
                            dz2.sum(axis=0), a2.T @ dz3, [dz3.sum()]])
    return grads, dz1 @ net.w1


def ref_forward(pool, params):
    if isinstance(params, SingleTemperature):
        return pool.logp / params.temperature, None
    offset = 1.0 if params.plus_one else 0.0
    u = params.w1 * (pool.coverage - params.w2)
    lp = pool.logp.copy()
    np.add.at(lp, (np.arange(len(lp)), pool.eos), log_sigmoid(u))
    g_out, g_cache = ref_net_forward(params.g_net, pool.entropy)
    gf = g_out + offset
    h_out, h_cache = ref_net_forward(params.h_net, lp[pool.active])
    hf = np.ones(lp.shape)
    hf[pool.active] = h_out + offset
    lp0 = np.where(pool.active, lp, 0.0)
    z = np.where(pool.active, lp0 * gf[:, None] * hf, -np.inf)
    return z, (u, lp0, gf, hf, g_cache, h_cache)


def ref_softmax(z, mult):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    denom = (e * mult).sum(axis=1, keepdims=True)
    return e / denom, (m + np.log(denom))[:, 0]


def ref_backward(pool, params, probs, cache):
    n = len(pool.gold)
    rows = np.arange(n)
    u, lp0, gf, hf, g_cache, h_cache = cache
    r = probs * pool.mult
    r[rows, pool.gold] -= 1.0
    r /= n
    g_grads, _ = ref_net_backward(params.g_net, g_cache, np.sum(np.where(pool.active, r * lp0 * hf, 0.0), axis=1))
    h_grads, d_inputs = ref_net_backward(params.h_net, h_cache, (r * lp0 * gf[:, None])[pool.active])
    dlp = np.where(pool.active, r * gf[:, None] * hf, 0.0)
    dlp[pool.active] += d_inputs
    du = dlp[rows, pool.eos] * (1.0 - sigmoid(u))
    return np.concatenate([[float(np.sum(du * (pool.coverage - params.w2))), float(np.sum(du * (-params.w1)))],
                           g_grads, h_grads])


def ref_forward_backward(theta, pool, plus_one):
    params = CalibratorParams.from_flat(theta.copy(), plus_one)
    with np.errstate(over="ignore", invalid="ignore"):
        z, cache = ref_forward(pool, params)
        probs, log_z = ref_softmax(z, pool.mult)
        losses = log_z - z[np.arange(len(z)), pool.gold]
        return float(losses.mean()), ref_backward(pool, params, probs, cache)


def ref_recalibrated(pool, params):
    return ref_softmax(ref_forward(pool, params)[0], pool.mult)[0]


# ---------------------------------------------------------------------------
# Logs
# ---------------------------------------------------------------------------


def toy_val_log():
    """The benchmark's toy validation log, as ``toy-pipeline`` fits it."""
    task = ToyTaskSpec.two_way_default(eos_floor=0.02)
    model = distort(build_true_model(task), DistortionSpec(temperature=0.5, eos_bias=1.5))
    return emit_log_batch(model, task, 100, derived_seed(SEED, 1))


def sparse_log(n=300, vocab=40, max_k=12, seed=11):
    """Top-K records with K in 1..12, stored features, EOS listed or not, and
    the gold token listed or in the tail."""
    rng = np.random.default_rng(seed)
    eos = vocab - 1
    records = []
    for i in range(n):
        k = int(rng.integers(1, max_k + 1))
        ids = rng.choice(vocab, k, replace=False)
        if rng.random() < 0.3 and eos not in ids:
            ids[0] = eos
        mass = rng.dirichlet(np.ones(k + 1))
        gold = int(rng.choice(ids)) if rng.random() < 0.8 else int(rng.integers(vocab))
        record = TokenRecord(
            seq_id=f"s{i // 8}", t=i % 8 + 1, vocab_size=vocab, eos_id=eos, gold_id=gold,
            entries=tuple((int(a), float(p)) for a, p in zip(ids, mass[:k])), rest_mass=float(mass[k]),
            features=StepFeatures(entropy=float(rng.uniform(0.0, 2.5)), coverage=float(rng.uniform(0.0, 1.0))),
        )
        validate_record(record)
        records.append(record)
    return LogBatch.from_records(records)


LOGS = {"toy": toy_val_log, "sparse": sparse_log}


@pytest.fixture(scope="module", params=sorted(LOGS))
def log(request):
    batch = LOGS[request.param]()
    pool = _fit_pool(batch)
    if request.param == "sparse":
        assert pool.prob.shape[1] == 14
    return batch, pool


# ---------------------------------------------------------------------------
# Variable calibrator: within rounding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plus_one", [False, True])
def test_every_epoch_and_the_fitted_theta_match_the_row_major_descent(log, plus_one):
    batch, pool = log
    cfg = TrainConfig(seed=derived_seed(SEED, 3))
    theta = initial_params(cfg, plus_one).to_flat()
    best_theta, best_nll, prev_nll = theta.copy(), math.inf, math.inf
    for _ in range(EPOCHS):
        value, grad = ref_forward_backward(theta, pool, plus_one)
        got_value, got_grad, _ = _forward_backward(theta, pool, plus_one)
        assert abs(got_value - value) <= 1e-13 * abs(value)
        assert np.max(np.abs(got_grad - grad)) <= 1e-12
        if value < best_nll:
            best_nll, best_theta = value, theta.copy()
        if abs(prev_nll - value) < recalibrate.FIT_TOLERANCE:
            break
        prev_nll = value
        theta = theta - cfg.learning_rate * grad
    fitted = fit_calibrator(batch, cfg, plus_one=plus_one).to_flat()
    assert np.max(np.abs(fitted - best_theta)) <= 1e-12


@pytest.mark.parametrize("plus_one", [False, True])
def test_variable_recalibrated_log_matches_the_row_major_apply(log, plus_one, monkeypatch):
    batch, _ = log
    params = fit_calibrator(batch, TrainConfig(max_epochs=50, seed=3), plus_one=plus_one)
    got = recalibrate_log(batch, params)
    monkeypatch.setattr(recalibrate, "_recalibrated", ref_recalibrated)
    want = recalibrate_log(batch, params)
    assert np.array_equal(got.offsets, want.offsets) and np.array_equal(got.ids, want.ids)
    assert np.max(np.abs(got.probs - want.probs)) <= 1e-12
    assert np.max(np.abs(got.rest_mass - want.rest_mass)) <= 1e-12


# ---------------------------------------------------------------------------
# Single temperature: bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.37, 1.0, 2.9])
def test_single_temperature_softmax_nll_and_apply_are_bit_identical(log, temperature, monkeypatch):
    batch, _ = log
    pool = _fit_pool(batch, with_features=False)
    z = pool.logp / temperature
    probs, log_z = ref_softmax(z, pool.mult)
    got_probs, m, denom = _softmax(pool, pool.slots.logp[:-1] / temperature)
    assert np.array_equal(got_probs, probs.ravel()[pool.slots.index])
    assert np.array_equal(m + np.log(denom), log_z)
    want_nll = float((log_z - z[np.arange(len(z)), pool.gold]).mean())
    assert single_temperature_nll(batch, temperature) == want_nll
    params = SingleTemperature(temperature)
    got = recalibrate_log(batch, params)
    monkeypatch.setattr(recalibrate, "_recalibrated", ref_recalibrated)
    want = recalibrate_log(batch, params)
    for column in ("offsets", "ids", "probs", "rest_mass"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
