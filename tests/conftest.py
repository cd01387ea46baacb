import json

import numpy as np
import pytest

from seqcal.records import StepFeatures, TokenRecord


def make_record(
    probs,
    gold,
    seq_id="s",
    t=1,
    eos_id=None,
    rest_mass=0.0,
    vocab_size=None,
    attention=None,
    cum_attention=None,
    features=None,
):
    """Dense-entry record helper: probs maps token id -> probability."""
    if isinstance(probs, dict):
        entries = tuple(sorted(probs.items()))
    else:
        entries = tuple((i, float(p)) for i, p in enumerate(probs))
    vocab = vocab_size if vocab_size is not None else max(i for i, _ in entries) + 1
    return TokenRecord(
        seq_id=seq_id,
        t=t,
        vocab_size=vocab,
        eos_id=vocab - 1 if eos_id is None else eos_id,
        gold_id=gold,
        entries=entries,
        rest_mass=rest_mass,
        attention=None if attention is None else tuple(attention),
        cum_attention=None if cum_attention is None else tuple(cum_attention),
        features=features,
    )


def make_feature_record(probs, gold, entropy, coverage, **kwargs):
    return make_record(probs, gold, features=StepFeatures(entropy=entropy, coverage=coverage), **kwargs)


def split_lines(path):
    """Each line of a log file as (its entries and rest_mass, its other fields)."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [(r.pop("entries"), r.pop("rest_mass")) for r in rows], rows


def random_simplex(rng, size):
    draw = rng.dirichlet(np.ones(size) * 0.8)
    return draw / draw.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
