import math
from dataclasses import replace

import numpy as np
import pytest

from seqcal import records
from seqcal.errors import FeatureError
from seqcal.features import (COVERAGE_THRESHOLD, FeatureStream, _entropy, attention_entropy, coverage, enrich,
                             enrich_batch, feature_columns)
from seqcal.records import (PROB_ATOL, LogBatch, SequenceRecord, StepFeatures, TokenRecord, blocks, first_failed,
                            offsets_of, row_sums, rows_with, spans, sums_to_one)

from conftest import make_record, random_simplex


class TestAttentionEntropy:
    def test_uniform_maximizes(self):
        assert attention_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert attention_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_two_way_split(self):
        assert attention_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_permutation_invariant(self, rng):
        for _ in range(30):
            alpha = random_simplex(rng, int(rng.integers(2, 10)))
            shuffled = rng.permutation(alpha)
            assert attention_entropy(alpha) == pytest.approx(attention_entropy(shuffled), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(FeatureError):
            attention_entropy([0.5, 0.4])

    def test_negative_rejected(self):
        with pytest.raises(FeatureError):
            attention_entropy([1.2, -0.2])


class TestCoverage:
    def test_strict_threshold_count(self):
        assert coverage([0.9, 0.4, 0.1]) == pytest.approx(2 / 3)

    def test_all_zero(self):
        assert coverage([0.0, 0.0]) == 0.0

    def test_all_above(self):
        assert coverage([0.5, 0.9, 0.8]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(FeatureError):
            coverage([])

    def test_infinite_weight_rejected(self):
        with pytest.raises(FeatureError, match="must be finite"):
            coverage([math.inf, 0.0])

    @pytest.mark.parametrize("weight, message", [
        (-0.1, "must be non-negative"),
        (math.nan, "must be non-negative"),
        (-math.inf, "must be non-negative"),
        (math.inf, "must be finite"),
    ])
    def test_invalid_weight_messages(self, weight, message):
        for cum in ([0.5, weight], [[0.5, 0.2], [weight, 0.9]]):  # one vector, and a batch of rows
            with pytest.raises(FeatureError, match=f"^cumulative attention weights {message}$"):
                coverage(cum)

    def test_batch_without_rows(self):
        assert coverage(np.zeros((0, 3))).shape == (0,)

    def test_rows_equal_each_vector_and_enrich_batch(self, rng):
        """The 2-D path, the 1-D path and ``enrich_batch`` each count weights above
        the threshold and divide by the width, so they agree bit for bit."""
        steps = [make_record([1.0], gold=0, t=t, attention=random_simplex(rng, 7)) for t in range(1, 31)]
        enriched = enrich(seq_of(steps)).steps
        cum = np.array([step.cum_attention for step in enriched])
        assert coverage(cum).tolist() == [coverage(row) for row in cum] == [s.features.coverage for s in enriched]


def seq_of(steps):
    return SequenceRecord(seq_id="s", steps=tuple(steps))


class TestEnrich:
    def test_cumulative_coverage_grows(self):
        steps = [
            make_record([1.0], gold=0, t=1, attention=[1.0, 0.0]),
            make_record([1.0], gold=0, t=2, attention=[0.0, 1.0]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features.coverage == pytest.approx(0.5)
        assert enriched.steps[1].features.coverage == pytest.approx(1.0)

    def test_precomputed_features_pass_through(self):
        feats = StepFeatures(entropy=0.123, coverage=0.456)
        steps = [make_record([1.0], gold=0, t=1, features=feats)]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features == feats

    def test_uniform_attention_entropy(self):
        steps = [
            make_record([1.0], gold=0, t=t, attention=[0.25] * 4) for t in range(1, 4)
        ]
        enriched = enrich(seq_of(steps))
        for step in enriched.steps:
            assert step.features.entropy == pytest.approx(math.log(4), abs=1e-12)

    def test_idempotent(self, rng):
        steps = []
        for t in range(1, 6):
            alpha = random_simplex(rng, 4)
            steps.append(make_record([1.0], gold=0, t=t, attention=alpha))
        once = enrich(seq_of(steps))
        twice = enrich(once)
        assert once == twice

    def test_coverage_monotone_in_t(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 6))
            steps = [
                make_record([1.0], gold=0, t=t, attention=random_simplex(rng, k))
                for t in range(1, n + 1)
            ]
            enriched = enrich(seq_of(steps))
            covs = [s.features.coverage for s in enriched.steps]
            assert all(b >= a for a, b in zip(covs, covs[1:]))

    def test_attention_recovered_from_cumulative_diffs(self):
        steps = [
            make_record([1.0], gold=0, t=1, cum_attention=[0.3, 0.7]),
            make_record([1.0], gold=0, t=2, cum_attention=[1.3, 0.7]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[0].features.entropy == pytest.approx(attention_entropy([0.3, 0.7]))
        assert enriched.steps[1].features.entropy == pytest.approx(0.0)
        assert enriched.steps[1].features.coverage == pytest.approx(1.0)

    def test_step_without_any_source_named_in_error(self):
        seq = SequenceRecord(seq_id="bad", steps=(make_record([1.0], gold=0, seq_id="bad", t=1),))
        with pytest.raises(FeatureError, match=r"'bad'.*1"):
            enrich(seq)

    def test_cum_attention_filled_when_reconstructed(self):
        steps = [
            make_record([1.0], gold=0, t=1, attention=[1.0, 0.0]),
            make_record([1.0], gold=0, t=2, attention=[1.0, 0.0]),
        ]
        enriched = enrich(seq_of(steps))
        assert enriched.steps[1].cum_attention == pytest.approx((2.0, 0.0))


GAP_FEATURES = StepFeatures(entropy=0.4, coverage=0.5)


def gap_sequence(cum, features=None, *later):
    """Attention at step 1, features only at step 2, ``cum_attention`` only at step 3."""
    steps = [make_record([1.0], gold=0, seq_id="g", t=1, attention=[0.3, 0.7]),
             make_record([1.0], gold=0, seq_id="g", t=2, features=GAP_FEATURES),
             make_record([1.0], gold=0, seq_id="g", t=3, cum_attention=cum, features=features)]
    steps += [make_record([1.0], gold=0, seq_id="g", t=t, cum_attention=c) for t, c in enumerate(later, 4)]
    return SequenceRecord("g", tuple(steps))


class TestFeaturesGap:
    @pytest.mark.parametrize("cum", [(0.6, 1.4), (0.5, 0.5)])
    def test_cumulative_only_step_after_the_gap_is_rejected(self, cum):
        # step 2's cumulative attention is unknown, so step 3's attention cannot be differenced
        with pytest.raises(FeatureError, match="sequence 'g' step 3: attention unknown after a step that carries "
                                               "only features"):
            enrich(gap_sequence(cum))

    def test_cumulative_only_step_after_the_gap_with_features_passes(self):
        feats = StepFeatures(entropy=0.1, coverage=0.2)
        out = enrich(gap_sequence((0.6, 1.4), feats, (1.1, 1.9))).steps
        assert out[2].features == feats and out[2].cum_attention == (0.6, 1.4)
        # the next step differences against step 3's stored cumulative attention
        assert out[3].features.entropy == pytest.approx(math.log(2), abs=1e-12)
        assert out[3].features.coverage == 1.0


class TestNonFiniteWeights:
    @pytest.mark.parametrize("alpha", [[math.nan, 1.0], [0.5, math.nan]])
    def test_entropy_rejects(self, alpha):
        with pytest.raises(FeatureError):
            attention_entropy(alpha)

    @pytest.mark.parametrize("cum", [[math.nan, 1.0], [0.5, math.nan]])
    def test_coverage_rejects(self, cum):
        with pytest.raises(FeatureError, match="non-negative"):
            coverage(cum)

    @pytest.mark.parametrize("vectors, message", [
        (dict(attention=[math.nan, 1.0], cum_attention=[math.nan, 1.0]), "attention weights must be finite"),
        (dict(cum_attention=[0.5, math.nan]), "cumulative attention weights must be finite"),
        (dict(attention=[math.inf, 0.0]), "attention weights must be finite"),
    ])
    def test_enrich_rejects_and_names_the_step_not_a_gap(self, vectors, message):
        steps = [make_record([1.0], gold=0, t=1, attention=[0.5, 0.5]),
                 make_record([1.0], gold=0, t=2, **vectors),
                 make_record([1.0], gold=0, t=3, attention=[0.5, 0.5])]
        with pytest.raises(FeatureError, match=f"sequence 's' step 2: {message}"):
            enrich(seq_of(steps))

    @pytest.mark.parametrize("steps, message", [
        # inf - inf in the difference of a step with only cum_attention
        ([dict(attention=[0.5, 0.5], cum_attention=[math.inf, 0.5]), dict(cum_attention=[math.inf, 1.0])],
         "step 1: cumulative attention weights must be finite"),
        ([dict(cum_attention=[-math.inf, 0.5]), dict(cum_attention=[-math.inf, 1.0]), dict(cum_attention=[1.0, 1.0])],
         "step 1: cumulative attention weights must be finite"),
        ([dict(attention=[math.inf, 0.5]), dict(attention=[-math.inf, 1.0])], "step 1: attention weights must be finite"),
        ([dict(attention=[1e308, 1e308])], "step 1: attention sums to inf, expected 1"),
    ])
    def test_a_batch_built_in_code_raises_without_a_numpy_warning(self, steps, message):
        """The log reader rejects these vectors first; a ``LogBatch`` built in
        code reaches the feature pass, which raises its FeatureError with no
        RuntimeWarning (which pytest turns into an error) before it."""
        batch = LogBatch.from_records([make_record([1.0], gold=0, t=t, **v) for t, v in enumerate(steps, 1)])
        stream = FeatureStream()
        stream.entropy(batch)
        for call in (lambda: enrich_batch(batch), lambda: feature_columns(batch), stream.check):
            with pytest.raises(FeatureError, match=f"sequence 's' {message}"):
                call()


# ---------------------------------------------------------------------------
# The pass that reads stored attention in place, against the earlier pass
# ---------------------------------------------------------------------------


def reference_enrich_batch(batch: LogBatch) -> LogBatch:
    """The earlier ``enrich_batch``, frozen: NaN-filled copies of every block's
    attention and cumulative vectors, the step recurrence for every block,
    and the checks read from the copies."""
    n = len(batch)
    filled, width, entropy, cov = np.empty(n, dtype=bool), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    parts = []
    for lo, hi in blocks(n, batch.seq_starts):
        filled[lo:hi], width[lo:hi], values, entropy[lo:hi], cov[lo:hi] = reference_enrich(batch.block(lo, hi))
        parts.append(values)
    return replace(
        batch, has_cum=filled, cum_offsets=offsets_of(np.where(filled, width, 0)),
        cum_attention=np.concatenate([np.empty(0), *parts]), has_features=np.ones(n, dtype=bool),
        entropy=np.where(batch.has_features, batch.entropy, entropy),
        coverage=np.where(batch.has_features, batch.coverage, cov),
    )


def reference_raise_first(batch, problems):
    first = first_failed([failed for failed, _ in problems])
    bad = first < len(problems)
    if bad.any():
        row = int(np.argmax(bad))
        message = problems[first[row]][1]
        raise FeatureError(f"{batch.where(row)}: {message(row) if callable(message) else message}")


def reference_enrich(batch: LogBatch):
    n = len(batch)
    has_att, has_cum, has_feat = batch.has_attention, batch.has_cum, batch.has_features
    att_len, cum_len = np.diff(batch.att_offsets), np.diff(batch.cum_offsets)
    has_vec = has_att | has_cum
    length = np.where(has_att, att_len, cum_len)
    starts, vec_rows = batch.seq_starts, np.flatnonzero(has_vec)
    first = np.append(vec_rows, n)[np.searchsorted(vec_rows, starts[:-1])]
    seq_width = np.where(first < starts[1:], np.append(length, 0)[first], 0)
    width = seq_width[batch.seq_index]
    bad_len = (has_att & (att_len != width)) | (has_cum & (cum_len != width))
    off = offsets_of(width)
    alpha, cum = np.full(off[-1], np.nan), np.full(off[-1], np.nan)
    for out, values, offsets, has in (
        (alpha, batch.attention, batch.att_offsets, has_att), (cum, batch.cum_attention, batch.cum_offsets, has_cum),
    ):
        fits = has & ~bad_len
        if (has & bad_len).any():
            values = values[np.repeat(fits, np.diff(offsets))]
        out[np.repeat(fits, width)] = values
    seq_len = np.diff(starts)
    order = np.argsort(-seq_len, kind="stable")
    w = seq_width[order]
    at_first = spans(off[starts[:-1][order]], w)
    back = np.repeat(w, w)
    live = offsets_of(w)[np.searchsorted(-seq_len[order], -np.arange(seq_len.max(initial=0)), side="left")]
    decreased = np.zeros(n, dtype=bool)
    for k, m in enumerate(live.tolist()):
        at = at_first[:m] + k * back[:m]
        a, c = alpha[at], cum[at]
        derive = np.isnan(a)
        if derive.any():
            diff = c[derive] - (cum[at[derive] - back[:m][derive]] if k else 0.0)
            decreased[np.searchsorted(off, at[derive][diff < -PROB_ATOL], "right") - 1] = True
            a[derive] = alpha[at[derive]] = np.maximum(diff, 0.0)
        running = a if k == 0 else running[:m] + a
        restart = np.isnan(running)
        running[restart] = c[restart]
        cum[at] = np.where(np.isnan(c), running, c)

    def known(values):
        out = np.ones(n, dtype=bool)
        out[width > 0] = ~np.isnan(values[off[:-1][width > 0]])
        return out

    known_att, known_cum = has_vec & known(alpha), has_vec & known(cum)
    total, negative = row_sums(alpha, off), rows_with(~(alpha >= 0), off)
    entropy = _entropy(alpha, width)
    cov = np.divide(row_sums(cum > COVERAGE_THRESHOLD, off), width, out=np.zeros(n), where=width > 0)
    gap = "after a step that carries only features; store {} or features on this step"
    reference_raise_first(batch, [
        (~has_vec & ~has_feat, "no attention, cumulative attention, or features"),
        (rows_with(~np.isfinite(batch.attention), batch.att_offsets), "attention weights must be finite"),
        (rows_with(~np.isfinite(batch.cum_attention), batch.cum_offsets),
         "cumulative attention weights must be finite"),
        (bad_len, "attention vectors differ in length"),
        (decreased, "cumulative attention decreased"),
        (known_att & (width == 0), "attention vector is empty"),
        (known_att & negative, "attention weights must be non-negative"),
        (known_att & ~sums_to_one(total), lambda i: f"attention sums to {total[i]:.8f}, expected 1"),
        (has_vec & ~has_feat & ~known_att, "attention unknown " + gap.format("attention")),
        (has_vec & ~has_feat & ~known_cum, "cumulative attention unknown " + gap.format("cum_attention")),
        (known_cum & (width == 0), "cumulative attention vector is empty"),
        (known_cum & rows_with(~(cum >= 0), off), "cumulative attention weights must be non-negative"),
    ])
    filled = has_cum | known_cum
    return filled, width, cum[np.repeat(filled, width)], entropy, cov


# what a step stores: attention (a), cum_attention (c), features (f)
STORES = ("a", "c", "ac", "f", "af", "cf", "acf")
LOGS = {"attention-only": ("a",), "cum-only": ("c",), "features-only": ("f",), "mixed": STORES}


def step_row(rng, seq, t, stores, alpha, cum, features=None) -> TokenRecord:
    return TokenRecord(
        seq_id=f"s{seq}", t=t, vocab_size=5, eos_id=4, gold_id=0, entries=((0, 0.6), (4, 0.4)), rest_mass=0.0,
        attention=tuple(alpha) if "a" in stores else None, cum_attention=tuple(cum) if "c" in stores else None,
        features=(features or StepFeatures(float(rng.random()), float(rng.random()))) if "f" in stores else None)


def feature_log(seed: int, stores: tuple[str, ...], rows: int) -> list[list[TokenRecord]]:
    """Whole sequences, 1 to 12 source positions each, whose steps store one
    of ``stores`` at random and follow the features-gap rule: a step
    without features comes only where its attention and running sum are
    known. ``cum_attention`` is the running sum of the drawn attention."""
    rng = np.random.default_rng(seed)
    log, count = [], 0
    while count < rows:
        width, steps = int(rng.integers(1, 13)), int(rng.integers(1, 80))
        cum, known, seq = np.zeros(width), True, []
        for t in range(1, steps + 1):
            alpha = rng.dirichlet(np.full(width, 0.5))
            cum = cum + alpha
            allowed = [s for s in stores if "f" in s or s == "ac" or known]
            chosen = allowed[rng.integers(len(allowed))]
            known = "c" in chosen or ("a" in chosen and known)
            seq.append(step_row(rng, len(log), t, chosen, alpha, cum))
        log.append(seq)
        count += steps
    return log


def outcome(call):
    """What ``call`` returns, or the message of the FeatureError it raises."""
    try:
        return call()
    except FeatureError as exc:
        return str(exc)


def assert_same(got, want):
    """Equal columns bit for bit, or the same FeatureError message."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_same_as_the_earlier_pass(batch: LogBatch):
    """``enrich_batch``, ``feature_columns`` and the entropy partition's
    blocks against the frozen earlier pass."""
    want = outcome(lambda: reference_enrich_batch(batch))
    names = ("has_cum", "cum_offsets", "cum_attention", "has_features", "entropy", "coverage")
    columns = lambda enriched: [getattr(enriched, name) for name in names]
    assert_same(outcome(lambda: columns(enrich_batch(batch))), want if isinstance(want, str) else columns(want))
    ensured = batch if batch.has_features.all() else want  # ``ensure_features``
    assert_same(outcome(lambda: list(feature_columns(batch))),
                ensured if isinstance(ensured, str) else [ensured.entropy, ensured.coverage])
    stream = FeatureStream()
    for lo, hi in blocks(len(batch), batch.seq_starts):
        block = batch.block(lo, hi)
        expected = outcome(lambda: reference_enrich_batch(block))
        got = stream.entropy(block)
        if isinstance(expected, str):
            assert got is None or block.has_features.all()
            assert str(stream.feature) == expected
            break
        assert_same([got], [expected.entropy])
    return want


BLOCK_SIZES = [7, 61, 1024]


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("log", LOGS)
def test_features_equal_the_earlier_pass_bit_for_bit(log, block_rows, monkeypatch):
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    batch = LogBatch.from_records(row for seq in feature_log(len(log), LOGS[log], 1500) for row in seq)
    want = assert_same_as_the_earlier_pass(batch)
    assert not isinstance(want, str), want
    assert log == "features-only" or not np.array_equal(want.entropy, batch.entropy, equal_nan=True)


def plant(log: list[list[TokenRecord]], defect: str) -> list[TokenRecord]:
    """The rows of ``log``, whose steps store both vectors, with ``defect``
    planted at the third step of a sequence of at least four steps past the
    first 100 rows."""
    rows = [row for seq in log for row in seq]
    at = next(i for i in range(100, len(rows)) if rows[i].t == 3 and i + 1 < len(rows) and rows[i + 1].t == 4)
    row, before = rows[at], rows[at - 1]
    alpha, cum = np.asarray(row.attention), np.asarray(row.cum_attention)
    rng = np.random.default_rng(len(defect))
    plain = lambda stores, a=alpha, c=cum: step_row(rng, row.seq_id[1:], row.t, stores, a, c)
    gap = replace(before, attention=None, cum_attention=None, features=StepFeatures(0.1, 0.2))
    if defect == "gap":  # a features-only step, then one with attention alone
        rows[at - 1:at + 1] = gap, plain("a")
    elif defect == "gap, then cum_attention alone":
        rows[at - 1:at + 1] = gap, plain("c")
    elif defect == "decreased":
        rows[at] = plain("c", c=np.asarray(before.cum_attention) - 0.01)
    elif defect == "width":
        rows[at] = plain("a", a=np.append(alpha * 0.5, 0.5))
    elif defect == "width of cum_attention":
        rows[at] = plain("ac", c=np.append(cum, 1.0))
    elif defect == "negative":
        rows[at] = plain("a", a=np.append(alpha[:-1], -0.1) if len(alpha) > 1 else -alpha)
    elif defect == "unnormalized":
        rows[at] = plain("a", a=alpha * 1.5)
    elif defect == "non-finite attention":
        rows[at] = plain("a", a=np.append(alpha[:-1], math.nan))
    elif defect == "non-finite cum_attention":
        rows[at] = plain("ac", c=np.append(cum[:-1], math.inf))
    elif defect == "negative cum_attention":
        rows[at] = plain("ac", c=np.append(cum[:-1], -0.5))
    elif defect == "no vector":
        rows[at] = plain("")
    return rows


DEFECTS = ["gap", "gap, then cum_attention alone", "decreased", "width", "width of cum_attention", "negative",
           "unnormalized", "non-finite attention", "non-finite cum_attention", "negative cum_attention", "no vector"]


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("defect", DEFECTS)
def test_each_bad_input_raises_the_earlier_error(defect, block_rows, monkeypatch):
    monkeypatch.setattr(records, "BLOCK_ROWS", block_rows)
    log = feature_log(3, ("ac",), 600)
    want = assert_same_as_the_earlier_pass(LogBatch.from_records(plant(log, defect)))
    assert isinstance(want, str) and ": " in want, want


def test_random_logs_equal_the_earlier_pass(monkeypatch):
    """Small logs whose steps store anything, vectors of any width and any
    values, so that most fail somewhere: the same columns or the same error."""
    monkeypatch.setattr(records, "BLOCK_ROWS", 7)
    outcomes = set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        rows = []
        for seq in range(int(rng.integers(1, 6))):
            width, cum = int(rng.integers(0, 4)), None
            for t in range(1, int(rng.integers(1, 8)) + 1):
                size = width if rng.random() < 0.9 else int(rng.integers(0, 4))
                alpha = rng.dirichlet(np.ones(size)) if size and rng.random() < 0.9 else rng.normal(0.3, 0.5, size)
                if rng.random() < 0.05 and size:
                    alpha[-1] = rng.choice([math.nan, -0.0])  # infinity is left to the planted defects
                cum = alpha if cum is None or len(cum) != size else cum + alpha * rng.choice([1.0, 1.0, -1.0])
                rows.append(step_row(rng, seq, t, STORES[rng.integers(len(STORES))] if rng.random() < 0.95 else "",
                                     alpha, cum))
        want = assert_same_as_the_earlier_pass(LogBatch.from_records(rows))
        outcomes.add(want.split(": ")[-1] if isinstance(want, str) else "passes")
    assert len(outcomes) >= 10, outcomes
