"""Seeded generator for the ``sparse-32k`` workload's log.

Each line is one teacher-forced step of an NMT-shaped model: a V=32000
vocabulary stored as the top-10 entries plus ``rest_mass`` spread over the
unlisted tokens, and attention over 8-40 source positions. Lines carry no
``features``, so ``stats --partition entropy:H`` has to enrich them from
attention.

The true next-token distribution is the ten listed probabilities plus a
uniform tail. The logged distribution is the true one sharpened by
``p ** (1 / 0.7)``, and the gold token is drawn from the true distribution,
tail included. The exact inverse map is the temperature ``1 / 0.7``, which
is what ``temperature_err`` measures a single-temperature fit against.

Every line is valid by construction: token ids are drawn without
replacement from the non-EOS ids, and EOS is only ever written over one of
them on a sequence's last step, so an id never repeats within a line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCAB = 32000
EOS_ID = 2
TOP_K = 10
SHARPEN_T = 0.7
SEQUENCES = 530  # about 12.8k records
SOURCE_LEN = (8, 40)


@dataclass(frozen=True)
class SparseLog:
    records: int
    entropy_median: float


def _step_line(rng, seq_id: str, t: int, last: bool, attention: np.ndarray) -> str:
    tail_mass = rng.uniform(0.02, 0.25)
    head = np.sort(rng.dirichlet(np.full(TOP_K, 0.3)))[::-1] * (1.0 - tail_mass)
    ids = rng.choice(VOCAB - 1, TOP_K, replace=False)
    ids[ids >= EOS_ID] += 1  # skip EOS so that it cannot collide below
    if last:
        ids[0] = EOS_ID

    if rng.random() < tail_mass:
        listed = set(ids.tolist())
        gold = int(rng.integers(VOCAB))
        while gold in listed:
            gold = int(rng.integers(VOCAB))
    else:
        gold = int(ids[rng.choice(TOP_K, p=head / head.sum())])

    unlisted = VOCAB - TOP_K
    sharp_head = head ** (1.0 / SHARPEN_T)
    sharp_tail = unlisted * (tail_mass / unlisted) ** (1.0 / SHARPEN_T)
    z = sharp_head.sum() + sharp_tail
    probs = sharp_head / z
    payload = {
        "seq_id": seq_id,
        "t": t,
        "vocab_size": VOCAB,
        "eos_id": EOS_ID,
        "gold_id": gold,
        "entries": [[int(i), float(p)] for i, p in zip(ids, probs)],
        "rest_mass": float(sharp_tail / z),
        "attention": attention.tolist(),
    }
    return json.dumps(payload, separators=(",", ":"))


def _attention(rng, source_len: int, t: int, length: int) -> np.ndarray:
    center = (t - 1) * (source_len - 1) / max(length - 1, 1)
    width = rng.uniform(0.3, 4.0)
    scores = np.exp(-np.abs(np.arange(source_len) - center) / width)
    return scores / scores.sum()


def generate(path: Path, seed: int, sequences: int = SEQUENCES) -> SparseLog:
    """Write the log to ``path``; the same seed writes the same bytes."""
    rng = np.random.default_rng(seed)
    entropies: list[float] = []
    records = 0
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(sequences):
            source_len = int(rng.integers(SOURCE_LEN[0], SOURCE_LEN[1] + 1))
            length = max(2, source_len + int(rng.integers(-4, 5)))
            for t in range(1, length + 1):
                alpha = _attention(rng, source_len, t, length)
                positive = alpha[alpha > 0]
                entropies.append(-float(np.sum(positive * np.log(positive))))
                handle.write(_step_line(rng, f"sent-{i:05d}", t, t == length, alpha) + "\n")
                records += 1
    return SparseLog(records=records, entropy_median=float(np.median(entropies)))
