import math
from collections import defaultdict

import numpy as np
import pytest

from seqcal.errors import FeatureError, MetricError
from seqcal.metrics import (
    PartitionSpec,
    ece,
    export_reliability,
    head_tail_curve,
    nll,
    partitioned_metric,
    top1,
    weighted_ece,
)
from seqcal.records import BinningConfig, densify

from conftest import make_feature_record, make_record, random_simplex

P1 = make_record([0.4, 0.1, 0.5], gold=0, seq_id="p1")
P2 = make_record([0.0, 0.5, 0.5], gold=0, seq_id="p2")
BINS10 = BinningConfig(10)


def weighted_oracle(records, bins):
    """Independent route: densify every record and bin token-by-token."""
    sums = defaultdict(float)
    for record in records:
        dense = densify(record)
        for token, p in enumerate(dense):
            if p == 0.0:
                continue
            correct = 1.0 if token == record.gold_id else 0.0
            sums[int(bins.index_array(np.array([p]))[0])] += p * (correct - p)
    return sum(abs(v) for v in sums.values()) / len(records)


class TestEce:
    def test_worked_pair_scores_half_each_and_combined(self):
        assert ece([P1], BINS10)[0] == pytest.approx(0.5, abs=1e-12)
        assert ece([P2], BINS10)[0] == pytest.approx(0.5, abs=1e-12)
        assert ece([P1, P2], BINS10)[0] == pytest.approx(0.5, abs=1e-12)

    def test_one_hot_correct_is_zero(self):
        record = make_record({3: 1.0}, gold=3, vocab_size=5)
        assert ece([record])[0] == 0.0

    def test_bin_exactly_calibrated_cancels(self):
        records = [make_record([0.7, 0.3], gold=0 if i < 7 else 1, seq_id=f"r{i}") for i in range(10)]
        assert ece(records)[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(MetricError):
            ece([])

    def test_argmax_matches_densified(self, rng):
        for _ in range(50):
            vocab = int(rng.integers(2, 15))
            probs = random_simplex(rng, vocab)
            listed = int(rng.integers(1, vocab + 1))
            entries = {int(j): float(probs[j]) for j in range(listed)}
            rest = float(probs[listed:].sum())
            record = make_record(entries, gold=0, vocab_size=vocab, rest_mass=rest)
            pred, conf = top1(record)
            dense = densify(record)
            assert pred == int(np.argmax(dense))
            assert conf == pytest.approx(dense.max(), abs=1e-12)


class TestWeightedEce:
    def test_worked_pair_values(self):
        # term-by-term: 0.4|1-0.4| + 0.1|0-0.1| + 0.5|0-0.5| with every term
        # in its own width-0.1 bin
        expected_p1 = 0.4 * abs(1 - 0.4) + 0.1 * abs(0 - 0.1) + 0.5 * abs(0 - 0.5)
        assert weighted_ece([P1], BINS10)[0] == pytest.approx(expected_p1, abs=1e-12)
        assert weighted_ece([P2], BINS10)[0] == pytest.approx(0.5, abs=1e-12)

    def test_one_hot_gold_is_zero(self):
        record = make_record({2: 1.0}, gold=2, vocab_size=6)
        assert weighted_ece([record])[0] == 0.0

    def test_zero_probability_tokens_contribute_nothing(self):
        with_zero = make_record([0.0, 0.5, 0.5], gold=1)
        without = make_record({1: 0.5, 2: 0.5}, gold=1, vocab_size=3)
        assert weighted_ece([with_zero])[0] == weighted_ece([without])[0]

    def test_matches_densified_oracle(self, rng):
        records = []
        for i in range(80):
            vocab = int(rng.integers(2, 20))
            probs = random_simplex(rng, vocab)
            listed = int(rng.integers(1, vocab + 1))
            entries = {int(j): float(probs[j]) for j in range(listed)}
            rest = float(probs[listed:].sum())
            records.append(
                make_record(entries, gold=int(rng.integers(vocab)), seq_id=f"r{i}",
                            vocab_size=vocab, rest_mass=rest)
            )
        for bins in (BINS10, BinningConfig(20)):
            assert weighted_ece(records, bins)[0] == pytest.approx(
                weighted_oracle(records, bins), abs=1e-9
            )

    def test_self_sampled_large_dataset_nearly_calibrated(self):
        rng = np.random.default_rng(11)
        n, vocab = 100_000, 10
        probs = rng.dirichlet(np.ones(vocab), size=n)
        cdf = probs.cumsum(axis=1)
        golds = (rng.random(n)[:, None] > cdf).sum(axis=1)
        records = [
            make_record({j: float(probs[i, j]) for j in range(vocab)}, gold=int(golds[i]), seq_id=f"r{i}")
            for i in range(n)
        ]
        score, hist = weighted_ece(records)
        assert score < 0.01
        assert abs(hist.mass.sum() - 1.0) < 1e-9


class TestInvariants:
    def test_scores_within_unit_interval(self, rng):
        records = []
        for i in range(40):
            vocab = int(rng.integers(2, 8))
            records.append(make_record(random_simplex(rng, vocab), gold=int(rng.integers(vocab)), seq_id=f"r{i}"))
        for metric in (ece, weighted_ece):
            score, hist = metric(records)
            assert 0.0 <= score <= 1.0
            assert abs(hist.mass.sum() - 1.0) < 1e-9
            assert np.all(hist.weight >= 0)

    def test_permutation_leaves_scores_bit_identical(self, rng):
        records = []
        for i in range(200):
            vocab = int(rng.integers(2, 9))
            records.append(make_record(random_simplex(rng, vocab), gold=int(rng.integers(vocab)), seq_id=f"r{i}"))
        shuffled = list(records)
        rng.shuffle(shuffled)
        for metric in (ece, weighted_ece):
            s1, h1 = metric(records)
            s2, h2 = metric(shuffled)
            assert s1 == s2
            assert np.array_equal(h1.weight, h2.weight)
            assert np.array_equal(h1.confidence_sum, h2.confidence_sum)
            assert np.array_equal(h1.accuracy_sum, h2.accuracy_sum)

    def test_bin_refinement_bounded_by_bin_width(self, rng):
        records = []
        for i in range(500):
            vocab = int(rng.integers(2, 9))
            records.append(make_record(random_simplex(rng, vocab), gold=int(rng.integers(vocab)), seq_id=f"r{i}"))
        for metric in (ece, weighted_ece):
            coarse = metric(records, BinningConfig(20))[0]
            fine = metric(records, BinningConfig(40))[0]
            assert abs(coarse - fine) <= 1 / 20 + 1e-12


class TestNll:
    def test_half_probability(self):
        assert nll([make_record([0.5, 0.5], gold=0)]) == pytest.approx(math.log(2), abs=1e-12)

    def test_certain_gold(self):
        assert nll([make_record({0: 1.0}, gold=0, vocab_size=2)]) == 0.0

    def test_mean_of_two(self):
        records = [
            make_record({0: 1.0}, gold=0, vocab_size=3, seq_id="a"),
            make_record({0: math.exp(-1), 1: 1 - math.exp(-1)}, gold=0, vocab_size=3, seq_id="b"),
        ]
        assert nll(records) == pytest.approx(0.5, abs=1e-12)

    def test_zero_gold_probability_names_record(self):
        record = make_record([0.0, 1.0], gold=0, seq_id="dead", t=4)
        with pytest.raises(MetricError, match=r"'dead'.*4"):
            nll([record])


class TestPartitions:
    def test_eos_group_of_perfect_eos_predictions(self):
        eos_rec = make_record({2: 1.0}, gold=2, vocab_size=3, eos_id=2)
        other = make_record([0.6, 0.4, 0.0], gold=0, eos_id=2)
        groups = partitioned_metric([eos_rec, other, eos_rec], PartitionSpec.eos())
        assert groups["eos"].count == 2
        assert groups["eos"].ece == 0.0
        assert groups["rest"].count == 1

    def test_entropy_split_empty_high_group(self):
        records = [
            make_feature_record([0.6, 0.4], gold=0, entropy=0.2, coverage=0.5, seq_id=f"r{i}")
            for i in range(3)
        ]
        groups = partitioned_metric(records, PartitionSpec.entropy(1.0))
        assert groups["high"].count == 0
        assert groups["high"].ece is None
        assert groups["low"].count == 3

    def test_group_metric_equals_filtered_metric(self):
        records = [
            make_feature_record([0.6, 0.4], gold=0, entropy=1.5, coverage=0.5, seq_id="hi1"),
            make_feature_record([0.9, 0.1], gold=1, entropy=1.5, coverage=0.5, seq_id="hi2"),
            make_feature_record([0.7, 0.3], gold=0, entropy=0.1, coverage=0.5, seq_id="lo1"),
        ]
        groups = partitioned_metric(records, PartitionSpec.entropy(1.0))
        assert groups["high"].ece == ece(records[:2])[0]
        assert groups["low"].weighted_ece == weighted_ece(records[2:])[0]

        mixed = [
            make_record({0: 0.5, 3: 0.3}, gold=0, vocab_size=6, eos_id=3, rest_mass=0.2, seq_id="a"),
            make_record({1: 0.2, 3: 0.7}, gold=3, vocab_size=6, eos_id=3, rest_mass=0.1, seq_id="b"),
            make_record({1: 0.1}, gold=5, vocab_size=6, eos_id=0, rest_mass=0.9, seq_id="c"),
            make_record([0.55, 0.45], gold=1, eos_id=0, seq_id="d"),
            make_record({2: 0.95}, gold=2, vocab_size=4, eos_id=0, rest_mass=0.05, seq_id="e"),
        ]
        for spec, labels in (
            (PartitionSpec.eos(), {"eos": ["b", "c", "d"], "rest": ["a", "e"]}),
            (PartitionSpec.confidence(0.6), {"head": ["b", "e"], "tail": ["a", "c", "d"]}),
        ):
            groups = partitioned_metric(mixed, spec)
            for label, ids in labels.items():
                members = [r for r in mixed if r.seq_id in ids]
                assert groups[label].count == len(members)
                assert groups[label].ece == ece(members)[0]
                assert groups[label].weighted_ece == weighted_ece(members)[0]

    def test_entropy_split_requires_features(self):
        # no stored features and no attention to derive them from
        with pytest.raises(FeatureError, match="sequence 's' step 1: no attention"):
            partitioned_metric([make_record([0.6, 0.4], gold=0)], PartitionSpec.entropy())

    def test_confidence_partition_by_top1(self):
        confident = make_record([0.9, 0.1], gold=0, seq_id="head")
        hesitant = make_record([0.55, 0.45], gold=0, seq_id="tail")
        groups = partitioned_metric([confident, hesitant], PartitionSpec.confidence(0.8))
        assert groups["head"].count == 1
        assert groups["tail"].count == 1

    def test_specific_token_partition(self):
        records = [
            make_record([0.9, 0.1, 0.0], gold=0, seq_id="a"),
            make_record([0.1, 0.9, 0.0], gold=1, seq_id="b"),
        ]
        groups = partitioned_metric(records, PartitionSpec.token(0))
        assert groups["token:0"].count == 1
        assert groups["rest"].count == 1


class TestHeadTail:
    def test_single_one_hot_record(self):
        record = make_record([1.0, 0.0], gold=0)
        rows = head_tail_curve([record], [0.5])
        assert rows[0]["head_conf_sum"] == pytest.approx(1.0)
        assert rows[0]["head_acc_sum"] == pytest.approx(1.0)
        assert rows[0]["tail_conf_sum"] == 0.0

    def test_threshold_one_puts_everything_in_tail(self):
        record = make_record([0.6, 0.4], gold=0)
        rows = head_tail_curve([record], [1.0])
        assert rows[0]["head_conf_sum"] == 0.0
        assert rows[0]["head_acc_sum"] == 0.0
        assert rows[0]["tail_conf_sum"] == pytest.approx(1.0)

    def test_self_sampled_tail_mass_matches_accuracy(self):
        rng = np.random.default_rng(5)
        n, vocab = 20_000, 10
        probs = rng.dirichlet(np.ones(vocab), size=n)
        cdf = probs.cumsum(axis=1)
        golds = (rng.random(n)[:, None] > cdf).sum(axis=1)
        records = [
            make_record({j: float(probs[i, j]) for j in range(vocab)}, gold=int(golds[i]), seq_id=f"r{i}")
            for i in range(n)
        ]
        rows = head_tail_curve(records, [0.2, 0.5])
        for row in rows:
            assert row["tail_acc_sum"] == pytest.approx(row["tail_conf_sum"], rel=0.05)
            assert row["head_acc_sum"] == pytest.approx(row["head_conf_sum"], rel=0.05)


class TestExport:
    def test_single_record_row(self):
        record = make_record([0.55, 0.45], gold=0)
        _, hist = ece([record])
        rows = export_reliability(hist)
        row = rows[11]
        assert (row["bin_lo"], row["bin_hi"]) == (0.55, 0.6)
        assert row["mass"] == pytest.approx(1.0)
        assert row["avg_confidence"] == pytest.approx(0.55)
        assert row["avg_accuracy"] == pytest.approx(1.0)

    def test_empty_bins_have_null_averages(self):
        record = make_record([0.55, 0.45], gold=0)
        _, hist = ece([record])
        rows = export_reliability(hist)
        assert rows[0]["mass"] == 0.0
        assert rows[0]["avg_confidence"] is None
        assert rows[0]["avg_accuracy"] is None

    def test_mass_sums_to_one(self, rng):
        records = [
            make_record(random_simplex(rng, 5), gold=int(rng.integers(5)), seq_id=f"r{i}")
            for i in range(30)
        ]
        for metric in (ece, weighted_ece):
            _, hist = metric(records)
            rows = export_reliability(hist)
            assert math.fsum(r["mass"] for r in rows) == pytest.approx(1.0, abs=1e-9)
