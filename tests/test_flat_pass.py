"""The calibrators' flat active-slot pass against frozen copies of the
(N, W) code it replaced.

The ``frozen_*`` functions below are copies of ``ScalarNet.forward`` and
``backward``, ``_forward``, ``_softmax``, ``_losses``, ``_backward``,
``_forward_backward``, ``_recalibrated`` and ``CalibratedModel.rescore``
as they ran on the (N, W) layout, with its log-probabilities and flat
indices rebuilt by ``frozen_logp`` and ``frozen_slots``. The flat pass
keeps every rounded reduction in its order: the row sum along the
layout's rows and the nets' products at the same widths; the row max is
exact in any order. So it must agree bit for bit: on every epoch of a
2,000-epoch descent, on the fitted parameters, on ``recalibrate_log`` and
on ``CalibratedModel`` rows at V = 21, one row or a batch at a time.
"""

import math

import numpy as np
import pytest

from seqcal import recalibrate
from seqcal.errors import ModelError
from seqcal.features import attention_entropy, coverage
from seqcal.records import PooledLayout
from seqcal.recalibrate import (
    THETA_SIZE,
    CalibratedModel,
    CalibratorParams,
    SingleTemperature,
    TrainConfig,
    _fit_pool,
    _forward_backward,
    fit_calibrator,
    initial_params,
    log_sigmoid,
    recalibrate_log,
    sigmoid,
)
from seqcal.toybench import DistortionSpec, ToyModel, ToyTaskSpec, _draw_pair, distort

from test_batch import SEED, derived_seed
from test_calibrator_layout import EPOCHS, LOGS

# ---------------------------------------------------------------------------
# Frozen (N, W) code
# ---------------------------------------------------------------------------


def frozen_net_forward(net, x):
    x = np.asarray(x, dtype=np.float64)
    a1 = np.multiply.outer(net.w1, x)
    a1 += net.b1[:, None]
    np.maximum(a1, 0.0, out=a1)
    a2 = net.w2 @ a1
    a2 += net.b2[:, None]
    np.maximum(a2, 0.0, out=a2)
    out = sigmoid(net.w3 @ a2 + float(net.b3))
    return out, (x, a1, a2, out)


def frozen_net_backward(net, cache, dout):
    x, a1, a2, out = cache
    dz3 = dout * out * (1.0 - out)
    dz2 = np.multiply.outer(net.w3, dz3)
    dz2 *= a2 > 0
    dz1 = net.w2.T @ dz2
    dz1 *= a1 > 0
    grads = np.concatenate([dz1 @ x, dz1.sum(axis=1), (dz2 @ a1.T).reshape(-1),
                            dz2.sum(axis=1), a2 @ dz3, [dz3.sum()]])
    return grads, net.w1 @ dz1


def frozen_logp(pool):
    logp = np.full(pool.prob.shape, -np.inf)
    np.log(pool.prob, out=logp, where=pool.active)
    return logp


def frozen_slots(pool):
    """The flat indices of the active slots, and of each row's gold and EOS slot."""
    n, width = pool.prob.shape
    index = pool.active.ravel().nonzero()[0]
    start = np.arange(0, n * width, width)
    return index, index // width, start + pool.gold, start + pool.eos


def frozen_forward(pool, params):
    if isinstance(params, SingleTemperature):
        return frozen_logp(pool) / params.temperature, None
    offset = float(params.plus_one)
    index, row, _, eos = frozen_slots(pool)
    with np.errstate(over="ignore", invalid="ignore"):
        u = params.w1 * (pool.coverage - params.w2)
        z = frozen_logp(pool)
        z.ravel()[eos] += log_sigmoid(u)
        lp = z.take(index)
        g_out, g_cache = frozen_net_forward(params.g_net, pool.entropy)
        gf = (g_out + offset)[row]
        h_out, h_cache = frozen_net_forward(params.h_net, lp)
        hf = h_out + offset
        z.put(index, lp * gf * hf)
    return z, (u, lp, gf, hf, g_cache, h_cache)


def frozen_softmax(z, mult):
    m = z.T.copy().max(axis=0)
    e = np.exp(z - m[:, None])
    denom = (e * mult).sum(axis=1)
    e /= denom[:, None]
    return e, m, denom


def frozen_recalibrated(pool, params):
    return frozen_softmax(frozen_forward(pool, params)[0], pool.mult)[0]


def frozen_losses(pool, params):
    z, cache = frozen_forward(pool, params)
    probs, m, denom = frozen_softmax(z, pool.mult)
    return m + np.log(denom) - z.take(frozen_slots(pool)[2]), probs, cache


def frozen_backward(prep, params, probs, cache):
    n = len(prep.gold)
    index, row, gold, eos = frozen_slots(prep)
    u, lp, gf, hf, g_cache, h_cache = cache
    r = probs * prep.mult
    r.ravel()[gold] -= 1.0
    r = r.take(index) / n
    g_grads, _ = frozen_net_backward(params.g_net, g_cache, np.bincount(row, r * lp * hf, minlength=n))
    h_grads, d_inputs = frozen_net_backward(params.h_net, h_cache, r * lp * gf)
    dlp = np.zeros(prep.prob.size)
    dlp.put(index, r * gf * hf + d_inputs)
    du = dlp[eos] * (1.0 - sigmoid(u))
    d_w1 = float(np.sum(du * (prep.coverage - params.w2)))
    d_w2 = float(np.sum(du * (-params.w1)))
    return np.concatenate([[d_w1, d_w2], g_grads, h_grads])


def frozen_forward_backward(theta, prep, plus_one):
    params = CalibratorParams.from_flat(theta.copy(), plus_one)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, probs, cache = frozen_losses(prep, params)
        return float(losses.mean()), frozen_backward(prep, params, probs, cache), losses


def frozen_rescore(model, probs, alpha, cum):
    vocab = probs.shape[-1]
    rows = probs.reshape(-1, vocab)
    prob = np.zeros((len(rows), vocab + 2))
    prob[:, :vocab] = rows
    eos = np.full(len(rows), model.eos_id)
    entropy = cov = None
    if isinstance(model.params, CalibratorParams):
        entropy = np.atleast_1d(attention_entropy(alpha))
        cov = np.atleast_1d(coverage(cum))
    pool = PooledLayout(prob, np.ones(prob.shape), eos, eos, entropy=entropy, coverage=cov)
    if not pool.active.any(axis=1).all():
        raise ModelError("the scoring model returned no positive probability")
    return frozen_recalibrated(pool, model.params)[:, :vocab].reshape(probs.shape)


# ---------------------------------------------------------------------------
# Fit: every epoch and the fitted parameters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(LOGS))
def log(request):
    batch = LOGS[request.param]()
    return batch, _fit_pool(batch)


@pytest.mark.slow
@pytest.mark.parametrize("plus_one", [False, True])
def test_every_epoch_and_the_fitted_theta_equal_the_frozen_descent(log, plus_one):
    batch, pool = log
    cfg = TrainConfig(seed=derived_seed(SEED, 3))
    theta = initial_params(cfg, plus_one).to_flat()
    best_theta, best_nll, prev_nll = theta.copy(), math.inf, math.inf
    epochs = 0
    for epochs in range(1, EPOCHS + 1):
        value, grad, losses = frozen_forward_backward(theta, pool, plus_one)
        got_value, got_grad, got_losses = _forward_backward(theta, pool, plus_one)
        assert got_value == value
        assert np.array_equal(got_grad, grad)
        assert np.array_equal(got_losses, losses)
        if value < best_nll:
            best_nll, best_theta = value, theta.copy()
        if abs(prev_nll - value) < recalibrate.FIT_TOLERANCE:
            break
        prev_nll = value
        theta = theta - cfg.learning_rate * grad
    assert epochs == EPOCHS  # the descent ran its whole budget
    assert np.array_equal(fit_calibrator(batch, cfg, plus_one=plus_one).to_flat(), best_theta)


# ---------------------------------------------------------------------------
# Apply and decoder rows
# ---------------------------------------------------------------------------


def random_params(seed, plus_one):
    """Every parameter drawn uniformly from [-2, 2]."""
    return CalibratorParams.from_flat(np.random.default_rng(seed).uniform(-2.0, 2.0, THETA_SIZE), plus_one)


def params_cases(batch):
    fitted = [fit_calibrator(batch, TrainConfig(max_epochs=50, seed=3), plus_one=p) for p in (False, True)]
    return [*fitted, random_params(1, False), random_params(2, True), SingleTemperature(0.37), SingleTemperature(2.9)]


def test_recalibrated_log_equals_the_frozen_apply(log, monkeypatch):
    batch, _ = log
    for params in params_cases(batch):
        got = recalibrate_log(batch, params)
        with monkeypatch.context() as patch:
            patch.setattr(recalibrate, "_recalibrated", frozen_recalibrated)
            want = recalibrate_log(batch, params)
        for column in ("offsets", "ids", "probs", "rest_mass"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (params, column)


TASK = ToyTaskSpec.two_way_default(eos_floor=0.02)


def decoder_rows(n, seed):
    """Steps of the distorted toy model at V = 21: distributions, attention
    and cumulative attention of ``n`` rows whose sources share a length."""
    rng = np.random.default_rng(seed)
    model = distort(ToyModel(TASK), DistortionSpec(temperature=0.5, eos_bias=1.5))
    source = _draw_pair(ToyModel(TASK), rng)[0]
    rows = []
    for _ in range(n):
        state, prefix, cum = model.start(source), (), np.zeros(len(source))
        for _ in range(int(rng.integers(0, 4))):
            probs, alpha, state = model.step(state, prefix)
            prefix += (int(rng.choice(len(probs), p=probs)),)
            cum = cum + alpha
        probs, alpha, _ = model.step(state, prefix)
        rows.append((probs, alpha, cum + alpha))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("params", [random_params(3, False), random_params(4, True), SingleTemperature(1.7)],
                         ids=["variable", "variable-plus-one", "single"])
def test_calibrated_model_rows_equal_the_frozen_rescore(params):
    model = CalibratedModel(distort(ToyModel(TASK), DistortionSpec(temperature=0.5)), params)
    probs, alpha, cum = decoder_rows(24, seed=5)
    # flat rows too: the toy's few large probabilities rarely expose the order of a row sum
    probs[::2] = np.random.default_rng(6).dirichlet(np.ones(21), 12)
    probs[3, :5] = 0.0  # zero-probability tokens stay inactive
    assert probs.shape[1] == 21
    assert np.array_equal(model.rescore(probs, alpha, cum), frozen_rescore(model, probs, alpha, cum))
    for row in range(len(probs)):
        one = model.rescore(probs[row], alpha[row], cum[row])
        assert one.shape == (21,)
        assert np.array_equal(one, frozen_rescore(model, probs[row], alpha[row], cum[row]))
