"""Post-hoc recalibration of next-token distributions.

Two flavors:

* a coverage-gated EOS logit correction plus a learned per-token inverse
  temperature ``g(entropy) * h(corrected logit)``, where g and h are tiny
  feed-forward nets (1 -> 3 -> 3 -> 1, ReLU hidden, sigmoid output) fitted
  by full-batch gradient descent on validation NLL with hand-derived
  analytic gradients;
* a single global temperature ``p ** (1/T)`` fitted by golden-section
  search on validation NLL.

Fitting, applying and ``CalibratedModel`` all run on the pooled-tail layout
of ``records.pooled_layout``, as the metrics do: the listed entries, an
unlisted EOS and the unlisted tail pooled into one slot, so a sparse top-K
log costs O(N*K), not O(N*V). Fits and apply take a ``LogBatch`` (or
records, which become one); fits use its one cached layout, and apply lays
out a block of its rows at a time. One pass over the layout's M active
slots (``PooledLayout.slots``) serves all of them: logits, softmax, loss
and gradient are flat (M,) vectors, and only the softmax's row sum sees an
(N, W) buffer. The variable calibrator reads each row's stored features, or
the entropy and coverage ``features.feature_columns`` derives from its attention.

All fitting is deterministic given the seed and input order. One table,
``NET_LAYERS``, lays out a net's weights, flat and in params files, whose
reader rejects any nesting its writer does not produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice
from numbers import Integral

import numpy as np

from .errors import FitError, ModelError, SeqcalError, ValidationError
from .features import COVERAGE_THRESHOLD, attention_entropy, coverage, feature_columns
from .jsonfile import field, is_number, read_json, write_json
from .records import LogBatch, PooledLayout, Records, TokenRecord, _dense_row, as_batch, blocks, offsets_of
from .rng import Stream
from .sequence import RescoringModel, ScoringModel

PARAMS_VERSION = "seqcal-params-v1"
INIT_SCALE = 0.1  # half-width of the uniform draw of the nets' initial weights

NET_HIDDEN = 3
# (outputs, inputs) of each layer; params files nest weights [layer][output][input], biases [layer][output]
NET_LAYERS = ((NET_HIDDEN, 1), (NET_HIDDEN, NET_HIDDEN), (1, NET_HIDDEN))
# where each layer's weights, then its biases, start in a flat net (``ScalarNet.to_flat``)
_NET_BOUNDS = (0, *accumulate(n for rows, cols in NET_LAYERS for n in (rows * cols, rows)))
_NET_SLICES = tuple(slice(lo, hi) for lo, hi in zip(_NET_BOUNDS, _NET_BOUNDS[1:]))
NET_SIZE = _NET_BOUNDS[-1]  # 22 scalars per net
THETA_SIZE = 2 + 2 * NET_SIZE


def _exp_neg_abs(x):
    """exp(-|x|), which ``sigmoid`` and ``log_sigmoid`` of x share."""
    return np.exp(-np.abs(x))


def sigmoid(x, e=None):
    x = np.asarray(x, dtype=np.float64)
    e = _exp_neg_abs(x) if e is None else e
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without
    # masks: exp(min(x, 0)) is 1 above 0 and the same exp(x) as e below it
    out = np.exp(np.minimum(x, 0.0)) / (1.0 + e)
    return out if out.ndim else float(out)


def log_sigmoid(x, e=None):
    x = np.asarray(x, dtype=np.float64)
    e = _exp_neg_abs(x) if e is None else e
    # -log1p(exp(-x)) for x >= 0 and x - log1p(exp(x)) below, without masks
    out = np.minimum(x, 0.0) - np.log1p(e)
    return out if out.ndim else float(out)


@dataclass
class ScalarNet:
    """1 -> 3 -> 3 -> 1 feed-forward net with ReLU hidden layers and sigmoid output."""

    w1: np.ndarray  # (3,)
    b1: np.ndarray  # (3,)
    w2: np.ndarray  # (3, 3)
    b2: np.ndarray  # (3,)
    w3: np.ndarray  # (3,)
    b3: float | np.ndarray  # a () view in a net from ``from_flat``

    @classmethod
    def zeros(cls) -> "ScalarNet":
        return cls.from_flat(np.zeros(NET_SIZE))

    @classmethod
    def from_flat(cls, flat: np.ndarray) -> "ScalarNet":
        """The net whose weights are views of ``flat``, not copies."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (NET_SIZE,):
            raise ValidationError("net", f"expected {NET_SIZE} weights, got {flat.shape}")
        w1, b1, w2, b2, w3, b3 = (flat[s] for s in _NET_SLICES)
        return cls(w1=w1, b1=b1, w2=w2.reshape(NET_HIDDEN, NET_HIDDEN), b2=b2, w3=w3, b3=b3.reshape(()))

    def to_flat(self) -> np.ndarray:
        return np.concatenate(
            [self.w1, self.b1, self.w2.reshape(-1), self.b2, self.w3, [self.b3]]
        )

    def forward(self, x: np.ndarray):
        """Sigmoid output in (0, 1) for a batch of M scalar inputs, and the
        cache ``backward`` reads: the inputs, the output and both hidden
        activations, stored hidden-major as (3, M) so that every op runs
        along the long batch axis."""
        x = np.asarray(x, dtype=np.float64)
        a1 = np.multiply.outer(self.w1, x)
        a1 += self.b1[:, None]
        np.maximum(a1, 0.0, out=a1)
        a2 = self.w2 @ a1
        a2 += self.b2[:, None]
        np.maximum(a2, 0.0, out=a2)
        out = sigmoid(self.w3 @ a2 + self.b3)
        return out, (x, a1, a2, out)

    def backward(self, cache, dout: np.ndarray, grads: np.ndarray | None = None, inputs: bool = True):
        """Parameter gradients (flat, 22), written into ``grads`` if given,
        and input gradients for ``dout`` (None without ``inputs``), from the
        hidden-major cache of ``forward``."""
        x, a1, a2, out = cache
        dz3 = dout * out * (1.0 - out)
        dz2 = np.empty((NET_HIDDEN, len(dz3)))
        for unit, w in zip(dz2, self.w3):  # np.multiply.outer broadcasts at about half this speed
            np.multiply(dz3, w, out=unit)
        dz2 *= a2 > 0  # the ReLU masks: a > 0 exactly where z > 0
        dz1 = self.w2.T @ dz2
        dz1 *= a1 > 0
        if grads is None:
            grads = np.empty(NET_SIZE)
        w1, b1, w2, b2, w3, b3 = (grads[s] for s in _NET_SLICES)
        np.matmul(dz1, x, out=w1)
        dz1.sum(axis=1, out=b1)
        np.matmul(dz2, a1.T, out=w2.reshape(NET_HIDDEN, NET_HIDDEN))
        dz2.sum(axis=1, out=b2)
        np.matmul(a2, dz3, out=w3)
        b3[0] = dz3.sum()
        return grads, self.w1 @ dz1 if inputs else None


@dataclass
class CalibratorParams:
    """Learned recalibration parameters.

    With ``plus_one`` off each temperature factor is sigma(net(.)) in (0, 1)
    so the inverse temperature lies in (0, 1); with it on each factor is
    1 + sigma(net(.)), giving an inverse temperature in (1, 4).
    """

    w1: float
    w2: float
    g_net: ScalarNet
    h_net: ScalarNet
    plus_one: bool = False

    def to_flat(self) -> np.ndarray:
        return np.concatenate([[self.w1, self.w2], self.g_net.to_flat(), self.h_net.to_flat()])

    @classmethod
    def from_flat(cls, theta: np.ndarray, plus_one: bool) -> "CalibratorParams":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (THETA_SIZE,):
            raise ValidationError("params", f"expected {THETA_SIZE} parameters, got {theta.shape}")
        return cls(
            w1=float(theta[0]),
            w2=float(theta[1]),
            g_net=ScalarNet.from_flat(theta[2 : 2 + NET_SIZE]),
            h_net=ScalarNet.from_flat(theta[2 + NET_SIZE :]),
            plus_one=plus_one,
        )


@dataclass(frozen=True)
class SingleTemperature:
    """Global-temperature recalibration: p ** (1/temperature), renormalized."""

    temperature: float

    def __post_init__(self) -> None:
        if not 0 < self.temperature < math.inf:  # NaN fails it too
            raise FitError(f"temperature must be positive, got {self.temperature}")


FIT_TOLERANCE = 1e-10  # the variable fit stops at the first epoch that changes the NLL by less


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.2
    max_epochs: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:  # NaN fails it too
            raise FitError(f"learning_rate must be positive, got {self.learning_rate}")
        if isinstance(self.max_epochs, bool) or not isinstance(self.max_epochs, Integral) or self.max_epochs <= 0:
            raise FitError(f"max_epochs must be a positive integer, got {self.max_epochs!r}")


def _eos_gate(c, params: CalibratorParams):
    """The EOS correction ln(sigma(w1 * (c - w2))) of each coverage c, always
    non-positive, and the terms ``_backward`` reuses: c - w2, u = w1 * (c - w2)
    and exp(-|u|)."""
    shift = c - params.w2
    u = params.w1 * shift
    e = _exp_neg_abs(u)
    return log_sigmoid(u, e), shift, u, e


def eos_correction(
    logits: np.ndarray, c_t: float, eos_id: int, params: CalibratorParams
) -> np.ndarray:
    """Add ln(sigma(w1 * (c_t - w2))) to the EOS logit, as fit and apply do
    (``_eos_gate``); always non-positive."""
    corrected = np.array(logits, dtype=np.float64, copy=True)
    corrected[eos_id] += _eos_gate(c_t, params)[0]
    return corrected


# ---------------------------------------------------------------------------
# Pooled-tail layout: every recalibration path runs on it
# ---------------------------------------------------------------------------


def _features(batch: LogBatch) -> dict[str, np.ndarray]:
    """The layout fields the variable calibrator reads: the entropy and
    coverage columns of ``ensure_features``, with no ``cum_attention`` column
    (``features.feature_columns``)."""
    return dict(zip(("entropy", "coverage"), feature_columns(batch)))


def _fit_pool(records: Records, with_features: bool = True) -> PooledLayout:
    batch = as_batch(records)
    if not len(batch):
        raise FitError("cannot fit on an empty dataset")
    pool = replace(batch.layout, **_features(batch)) if with_features else batch.layout
    zero = ~pool.active[np.arange(len(batch)), pool.gold]
    if zero.any():
        i = int(np.argmax(zero))
        raise FitError(
            f"{batch.where(i)}: gold token {batch.gold_id[i]} has zero probability, loss would be infinite"
        )
    return pool


def _logits(pool: PooledLayout, params: CalibratorParams | SingleTemperature):
    """Recalibrated logit of each active slot (``PooledLayout.slots``) and
    the cache the backward pass needs (None for a temperature).

    The variable map evaluates h once per active slot, so the pooled tail
    costs one evaluation for all of its tokens; an unlisted EOS has its own
    slot and so its own correction term. Saturating parameters overflow to
    inf; callers run this under ``np.errstate``, and the fit reports a
    non-finite loss.
    """
    slots = pool.slots
    if isinstance(params, SingleTemperature):
        return slots.logp[:-1] / params.temperature, None
    gate, shift, u, e = _eos_gate(pool.coverage, params)
    lp = slots.logp.copy()
    # a row without an active EOS adds to the -inf past the slots
    np.add.at(lp, pool.positions[1], gate)
    lp = lp[:-1]
    g_out, g_cache = params.g_net.forward(pool.entropy)
    h_out, h_cache = params.h_net.forward(lp)
    if params.plus_one:  # a sigmoid is never -0, so adding 0 would change no bit
        g_out, h_out = g_out + 1.0, h_out + 1.0
    gf = g_out.take(slots.row)
    return lp * gf * h_out, (shift, u, e, lp, gf, h_out, g_cache, h_cache)


def _softmax(pool: PooledLayout, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token probability of each active slot, and each row's max logit
    and sum over the max, in which a slot counts ``mult`` times. The max is
    exact in any order; the sum alone sees an (N, W) buffer, along each row
    of the layout, padding included, in the order its slots give."""
    slots = pool.slots
    m = np.full(len(pool.gold), -np.inf)
    np.maximum.at(m, slots.row, z)
    e = np.exp(z - m.take(slots.row))
    rows = np.zeros(pool.prob.size)
    rows[slots.index] = e * slots.mult
    denom = rows.reshape(pool.prob.shape).sum(axis=1)
    e /= denom.take(slots.row)
    return e, m, denom


def _recalibrated(pool: PooledLayout, params: CalibratorParams | SingleTemperature) -> np.ndarray:
    """Per-token recalibrated probability of every slot of the layout."""
    with np.errstate(over="ignore", invalid="ignore"):
        z, _ = _logits(pool, params)
    probs = np.zeros(pool.prob.shape)
    probs.ravel()[pool.slots.index] = _softmax(pool, z)[0]
    return probs


def _nll(pool: PooledLayout, params: CalibratorParams | SingleTemperature, grad: np.ndarray | None = None):
    """Mean gold NLL and each row's; with ``grad``, also the NLL's exact
    gradient, written there. The variable map's callers run it under
    ``np.errstate``."""
    z, cache = _logits(pool, params)
    probs, m, denom = _softmax(pool, z)
    losses = m + np.log(denom) - z.take(pool.positions[0])
    if grad is not None:
        _backward(pool, params, probs, cache, grad)
    return float(losses.sum() / len(losses)), losses  # the mean, without np.mean's checks


def _backward(pool: PooledLayout, params: CalibratorParams, probs: np.ndarray, cache, grad: np.ndarray) -> None:
    n = len(pool.gold)
    slots = pool.slots
    gold, eos = pool.positions
    shift, u, e, lp, gf, hf, g_cache, h_cache = cache
    # d(mean NLL)/dz: each slot's softmax mass, minus one on the gold slot
    r = probs * slots.mult
    np.subtract.at(r, gold, 1.0)
    r /= n
    rl = r * lp
    params.g_net.backward(g_cache, np.bincount(slots.row, rl * hf, minlength=n),
                          grad[2 : 2 + NET_SIZE], inputs=False)
    _, d_inputs = params.h_net.backward(h_cache, rl * gf, grad[2 + NET_SIZE :])
    dlp = np.zeros(len(r) + 1)  # position M stays 0 for rows without an active EOS
    d = np.multiply(r, gf, out=dlp[:-1])
    d *= hf
    d += d_inputs
    du = dlp[eos] * (1.0 - sigmoid(u, e))
    grad[0] = (du * shift).sum()
    grad[1] = (du * (-params.w1)).sum()


def _forward_backward(theta: np.ndarray, prep: PooledLayout, plus_one: bool, want_grad: bool = True):
    """Mean NLL of the recalibrated gold probabilities, its exact gradient
    (None without ``want_grad``) and each row's loss, for the flat ``theta``.

    Overflow is deliberately tolerated here: runaway parameters produce a
    non-finite loss, which the fit loop detects and reports.
    """
    grad = np.empty(THETA_SIZE) if want_grad else None
    with np.errstate(over="ignore", invalid="ignore"):
        value, losses = _nll(prep, CalibratorParams.from_flat(theta, plus_one), grad)
    return value, grad, losses


def recalibrate_log(records: Records, params: CalibratorParams | SingleTemperature) -> LogBatch:
    """Recalibrate a whole log columnar, a block of records at a time, each
    with its own layout; records stay sparse. Returns the rewritten batch.

    Every input entry keeps its position (zeros are written as 0.0) and the
    unlisted tokens keep sharing ``rest_mass``. An unlisted EOS whose new
    probability differs from the tail's gains its own entry, after the
    others. The variable calibrator reads the entropy and coverage columns
    derived over whole sequences (``_features``), which a block may cut, and
    no ``cum_attention``; every other column is the input's own.
    """
    batch = as_batch(records)
    n = len(batch)
    counts = np.diff(batch.offsets)
    features = _features(batch) if isinstance(params, CalibratorParams) else {}
    listed, eos_prob, tail_prob, eos_unlisted = np.empty(len(batch.ids)), np.empty(n), np.empty(n), np.empty(n, bool)
    for lo, hi in blocks(n):
        layout = replace(batch.block(lo, hi).layout, **{name: f[lo:hi] for name, f in features.items()})
        probs = _recalibrated(layout, params)
        width = probs.shape[1]
        # ``_fill`` puts a row's entries in its first columns in input order
        listed[batch.offsets[lo] : batch.offsets[hi]] = probs[np.arange(width) < counts[lo:hi, None]]
        eos_prob[lo:hi], tail_prob[lo:hi], eos_unlisted[lo:hi] = probs[:, -2], probs[:, -1], layout.eos == width - 2
    own_eos = eos_unlisted & (eos_prob != tail_prob)
    # every unlisted token but an EOS with its own entry shares the tail's probability
    rest = (batch.vocab_size - counts - own_eos) * tail_prob
    offsets = offsets_of(counts + own_eos)
    ids, new_probs = np.empty(offsets[-1], dtype=np.int64), np.empty(offsets[-1])
    last = offsets[1:][own_eos] - 1  # an own EOS entry follows the row's listed ones
    listed_at = np.ones(offsets[-1], dtype=bool)
    listed_at[last] = False
    ids[listed_at], new_probs[listed_at] = batch.ids, listed
    ids[last], new_probs[last] = batch.eos_id[own_eos], eos_prob[own_eos]
    return replace(batch, offsets=offsets, ids=ids, probs=new_probs, rest_mass=rest)


def apply_calibrator(record: TokenRecord, params: CalibratorParams) -> np.ndarray:
    """Recalibrate one record's dense distribution using its stored features,
    or those its attention vectors give (``_features``): the
    ``recalibrate_log`` row, densified. The record is read alone, so a
    mid-sequence step of an attention-only log needs ``enrich(seq)`` first."""
    return _dense_row(recalibrate_log([record], params))


def apply_single_temperature(record: TokenRecord, temperature: float) -> np.ndarray:
    """Dense distribution proportional to p ** (1/T); preserves the ranking."""
    return _dense_row(recalibrate_log([record], SingleTemperature(temperature)))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def calibration_nll(records: Records, params: CalibratorParams) -> float:
    """Mean NLL of gold tokens under the recalibrated distributions."""
    prep = _fit_pool(records)
    value, _, _ = _forward_backward(params.to_flat(), prep, params.plus_one, want_grad=False)
    return value


def calibration_gradient(params: CalibratorParams, records: Records) -> np.ndarray:
    """Exact gradient of the mean NLL over (w1, w2, g_net, h_net), flattened."""
    prep = _fit_pool(records)
    _, grad, _ = _forward_backward(params.to_flat(), prep, params.plus_one)
    return grad


def initial_params(cfg: TrainConfig, plus_one: bool) -> CalibratorParams:
    """Seeded starting point: small symmetric nets, damping engaged near the
    coverage threshold."""
    theta = np.empty(THETA_SIZE)
    theta[0] = 1.0
    theta[1] = COVERAGE_THRESHOLD
    low, high = -INIT_SCALE, INIT_SCALE
    theta[2:] = low + (high - low) * Stream(cfg.seed).random(THETA_SIZE - 2)  # numpy's Generator.uniform
    return CalibratorParams.from_flat(theta, plus_one)


def fit_calibrator(
    records: Records,
    cfg: TrainConfig = TrainConfig(),
    *,
    plus_one: bool = False,
) -> CalibratorParams:
    """Full-batch gradient descent on validation NLL; returns the best-seen
    parameters, never worse than the initialization."""
    batch = as_batch(records)
    prep = _fit_pool(batch)
    theta = initial_params(cfg, plus_one).to_flat()
    # views of theta, so they follow every step it takes in place
    g_net, h_net = ScalarNet.from_flat(theta[2 : 2 + NET_SIZE]), ScalarNet.from_flat(theta[2 + NET_SIZE :])
    grad = np.empty(THETA_SIZE)
    best_theta = theta.copy()
    best_nll = math.inf
    prev_nll = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            params = CalibratorParams(w1=float(theta[0]), w2=float(theta[1]), g_net=g_net, h_net=h_net,
                                      plus_one=plus_one)
            value, losses = _nll(prep, params, grad)
            if not math.isfinite(value):
                raise FitError(
                    f"non-finite loss at epoch {epoch} ({batch.where(int(np.argmax(~np.isfinite(losses))))}); "
                    "reduce the learning rate"
                )
            if value < best_nll:
                best_nll = value
                best_theta = theta.copy()
            if abs(prev_nll - value) < FIT_TOLERANCE:
                break
            prev_nll = value
            theta -= cfg.learning_rate * grad
    return CalibratorParams.from_flat(best_theta, plus_one)


def golden_section(f, lo: float, hi: float, tol: float = 1e-8, max_iter: int = 200) -> float:
    """Minimize a unimodal function on [lo, hi]; ties collapse toward lo."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        c = hi - ratio * (hi - lo)
        d = lo + ratio * (hi - lo)
        if f(c) <= f(d):
            hi = d
        else:
            lo = c
    return 0.5 * (lo + hi)


TEMPERATURE_RANGE = (0.05, 20.0)


def fit_single_temperature(records: Records) -> float:
    """Temperature minimizing validation NLL of p ** (1/T), via golden-section
    search over [0.05, 20] with a final parabolic refinement."""
    pool = _fit_pool(records, with_features=False)

    def objective(temperature: float) -> float:
        return _nll(pool, SingleTemperature(temperature))[0]

    lo, hi = TEMPERATURE_RANGE
    center = golden_section(objective, lo, hi, tol=1e-6)
    h = 1e-4
    a = max(lo, center - h)
    b = min(hi, center + h)
    fa, fc, fb = objective(a), objective(center), objective(b)
    denom = fa - 2.0 * fc + fb
    refined = center
    if denom > 0:
        refined = center + 0.5 * (fa - fb) / denom * h
        refined = min(max(refined, lo), hi)
    candidates = [(fa, a), (fc, center), (fb, b), (objective(refined), refined)]
    return min(candidates)[1]


def single_temperature_nll(records: Records, temperature: float) -> float:
    """Mean NLL of gold tokens after global temperature scaling."""
    params = SingleTemperature(temperature)  # checked before the log is pooled
    return _nll(_fit_pool(records, with_features=False), params)[0]


# ---------------------------------------------------------------------------
# Params file IO and model wrapping
# ---------------------------------------------------------------------------


def _net_to_json(net: ScalarNet) -> tuple[list, list]:
    """A net's weights and biases, nested as ``NET_LAYERS`` shapes them."""
    flat, weights, biases = iter(net.to_flat().tolist()), [], []
    for rows, cols in NET_LAYERS:  # a layer's weights, then its biases, as ``to_flat`` orders them
        weights.append([list(islice(flat, cols)) for _ in range(rows)])
        biases.append(list(islice(flat, rows)))
    return weights, biases


def _nesting(value):
    """The lists a JSON value nests, with None for each leaf."""
    return [_nesting(item) for item in value] if isinstance(value, list) else None


def _net_from_json(payload: dict, weights_key: str, bias_key: str) -> ScalarNet:
    """The net of fields ``weights_key`` and ``bias_key``, which must nest
    exactly as ``_net_to_json`` writes them."""
    weights, biases = field(payload, weights_key), field(payload, bias_key)
    if _nesting([weights, biases]) != _nesting(list(_net_to_json(ScalarNet.zeros()))):
        raise SeqcalError(f"fields {weights_key!r}/{bias_key!r} do not nest as fit writes a 1-3-3-1 net")
    flat = [x for w, b in zip(weights, biases) for x in chain(chain.from_iterable(w), b)]  # ``to_flat`` order
    bad = [x for x in flat if not is_number(x)]
    if bad:
        raise SeqcalError(f"fields {weights_key!r}/{bias_key!r} hold a non-finite weight "
                          f"or one that is not a JSON number: {bad[0]!r}")
    return ScalarNet.from_flat(np.array(flat, dtype=np.float64))


def params_to_payload(params: CalibratorParams | SingleTemperature) -> dict:
    if isinstance(params, SingleTemperature):
        return {
            "version": PARAMS_VERSION,
            "mode": "single",
            "temperature": params.temperature,
        }
    g_w, g_b = _net_to_json(params.g_net)
    h_w, h_b = _net_to_json(params.h_net)
    return {
        "version": PARAMS_VERSION,
        "mode": "variable",
        "w1": params.w1,
        "w2": params.w2,
        "plus_one": params.plus_one,
        "g_net": g_w,
        "g_bias": g_b,
        "h_net": h_w,
        "h_bias": h_b,
    }


def params_from_payload(payload: dict) -> CalibratorParams | SingleTemperature:
    """Parameters from a decoded params file; a missing or mistyped field
    raises SeqcalError naming it. Numbers must be finite JSON numbers and
    ``plus_one`` a JSON bool."""
    version = field(payload, "version")
    if version != PARAMS_VERSION:
        raise SeqcalError(f"unsupported params file version {version!r}")
    mode = field(payload, "mode")
    if mode == "single":
        temperature = field(payload, "temperature", float)
        if temperature <= 0:
            raise SeqcalError(f"field 'temperature' must be positive, got {temperature}")
        return SingleTemperature(temperature=temperature)
    if mode != "variable":
        raise SeqcalError(f"field 'mode' must be 'single' or 'variable', got {mode!r}")
    return CalibratorParams(
        w1=field(payload, "w1", float),
        w2=field(payload, "w2", float),
        g_net=_net_from_json(payload, "g_net", "g_bias"),
        h_net=_net_from_json(payload, "h_net", "h_bias"),
        plus_one=field(payload, "plus_one", bool),
    )


def save_params(path, params: CalibratorParams | SingleTemperature) -> None:
    write_json(path, params_to_payload(params))


def load_params(path) -> CalibratorParams | SingleTemperature:
    return read_json(path, params_from_payload)


class CalibratedModel(RescoringModel):
    """Wrap a scoring model so every step distribution is recalibrated, with
    the features derived online as the log pipeline derives them."""

    def __init__(self, inner: ScoringModel, params: CalibratorParams | SingleTemperature):
        super().__init__(inner)
        self.params = params

    def rescore(self, probs, alpha, cum):
        """Softmax of the corrected logit times the inverse temperature, or
        of log p / T, for each row, run as one layout: every token is a
        listed slot in id order, zero-probability ones inactive, and no row
        has a tail. The probabilities are taken as given, not renormalized,
        and zero ones stay exactly zero. A row with no positive probability
        raises ModelError."""
        vocab = probs.shape[-1]
        rows = probs.reshape(-1, vocab)
        prob = np.zeros((len(rows), vocab + 2))
        prob[:, :vocab] = rows
        eos = np.full(len(rows), self.eos_id)
        entropy = cov = None
        if isinstance(self.params, CalibratorParams):
            entropy = np.atleast_1d(attention_entropy(alpha))
            cov = np.atleast_1d(coverage(cum))
        pool = PooledLayout(prob, np.ones((len(rows), 1)), eos, eos, entropy=entropy, coverage=cov)
        if np.count_nonzero(np.bincount(pool.slots.row, minlength=len(rows))) < len(rows):  # a row with no active slot
            raise ModelError("the scoring model returned no positive probability")
        return _recalibrated(pool, self.params)[:, :vocab].reshape(probs.shape)
