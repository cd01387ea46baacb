"""``rng.Stream`` draws numpy's ``default_rng`` streams bit for bit: the
SeedSequence hash of int and tuple entropy (the extra-word loop too), PCG64
with its buffered 32-bit half, ``random``, ``integers`` by Lemire's
rejection, the nets' uniform initialisation and ``sample_sequence``'s cdf
draw, which ``Generator.choice`` makes."""

import numpy as np
import pytest

from seqcal.errors import SeqcalError
from seqcal.recalibrate import INIT_SCALE, THETA_SIZE, TrainConfig, initial_params
from seqcal.rng import POOL, Stream, _words
from seqcal.sequence import ScoringModel, sample_sequence

ENTROPY = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130, (3, 0, 5), (7, 1, 2**32 + 9),
           (2**40, 2**33, 7), (2**100, 2**70, 12345), (1, 2, 3, 4, 5)]
# integers' [low, high): widths 1 and 2, one that rejects about half its draws, 2**32 - 1 and 2**32
BOUNDS = [(0, 1), (5, 6), (0, 2), (-3, -1), (0, 2**31 + 1), (0, 2**32 - 1), (7, 2**32 + 7), (0, 21), (1, 11)]


def same(got, want):
    """The same value, type kind and bits: a Python int for numpy's integer scalar."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return type(got) is (float if isinstance(want, float) else int) and got == want


@pytest.mark.parametrize("entropy", ENTROPY, ids=str)
def test_draws_equal_default_rng(entropy):
    """Scalar and array ``integers`` at every width, interleaved with
    ``random``: an odd number of 32-bit draws leaves the upper half of a
    64-bit draw buffered, which ``random`` passes over and the next
    32-bit draw returns."""
    got, want = Stream(entropy), np.random.default_rng(entropy)
    for size in (None, 1, 3, None, 0, 7):
        for low, high in BOUNDS:
            assert same(got.integers(low, high, size), want.integers(low, high, size)), (low, high, size)
            assert same(got.random(), want.random())
        assert same(got.random(size), want.random(size))
        assert same(got.integers(0, 21), want.integers(0, 21))  # one 32-bit draw, then a 64-bit one
        assert same(got.random(3), want.random(3))


def test_long_entropy_mixes_its_remaining_words():
    assert all(len(_words(entropy)) > POOL for entropy in ENTROPY[-3:])
    assert _words(2**64 + 1) == [1, 0, 1] and _words(2**32) == [0, 1] and _words((0, 2**32 - 1)) == [0, 2**32 - 1]


def test_lemire_rejection_redraws_as_numpy_does(monkeypatch):
    """A width of 2**31 + 1 rejects about half of its 32-bit draws."""
    calls = []
    next32 = Stream._next32
    monkeypatch.setattr(Stream, "_next32", lambda self: calls.append(1) or next32(self))
    got = Stream((11, 2, 3)).integers(0, 2**31 + 1, 500)
    assert got.tobytes() == np.random.default_rng((11, 2, 3)).integers(0, 2**31 + 1, 500).tobytes()
    assert 600 < len(calls) < 1400


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**64 + 1])
@pytest.mark.parametrize("plus_one", [False, True])
def test_initial_params_are_numpys_uniform(seed, plus_one):
    theta = initial_params(TrainConfig(seed=seed), plus_one).to_flat()
    want = np.random.default_rng(seed).uniform(-INIT_SCALE, INIT_SCALE, THETA_SIZE - 2)
    assert theta[2:].tobytes() == want.tobytes()


class Rows(ScoringModel):
    """Emits row ``len(prefix)`` of a table, whose last token is EOS."""

    def __init__(self, table):
        self.table = table

    vocab_size = property(lambda self: self.table.shape[1])
    eos_id = property(lambda self: self.table.shape[1] - 1)

    def start(self, source):
        return None

    def step(self, state, prefix):
        return self.table[len(prefix)].copy(), np.array([1.0]), None


def test_sampling_picks_what_generator_choice_picks():
    """6,000 tokens from rows with exact zeros (leading, trailing, between,
    and a single 1.0): one ``random()`` per token, each the token
    ``Generator.choice(V, p=...)`` draws from the same stream."""
    rng = np.random.default_rng(3)
    table = rng.dirichlet(np.full(9, 0.3), 20) * (rng.random((20, 9)) < 0.6)
    table[:, -1] = 0.0  # no EOS, so that every sample runs all 20 steps
    table[3] = np.eye(9)[4]
    table[5, 0] = table[6, -2] = 0.0
    table[table.sum(axis=1) == 0, 2] = 1.0
    table /= table.sum(axis=1, keepdims=True)
    model = Rows(table)
    for key in range(300):
        want = np.random.default_rng((key, 4))
        expected = tuple(int(want.choice(9, p=row / row.sum())) for row in table)
        assert sample_sequence(model, (0,), Stream((key, 4)), 20) == expected
        assert sample_sequence(model, (0,), np.random.default_rng((key, 4)), 20) == expected


@pytest.mark.parametrize("entropy", [-1, (3, -2, 0), (-(2**40),)])
def test_a_negative_seed_is_named(entropy):
    with pytest.raises(SeqcalError, match=r"a seed must be a non-negative integer, got -\d+"):
        Stream(entropy)
