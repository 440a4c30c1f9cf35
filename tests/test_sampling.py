"""Forward sampling, the collect-until-matched procedure, and frequencies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybn import (CapExceeded, Dataset, collect_until_matched, cond_freq, forward_sample,
                     validate)
from querybn.experiments import ex41_truth, ex43_truth
from querybn.random_nets import random_net
from querybn.sampling import _net_codes, load_dataset, save_dataset

from helpers import make_net


class TestForwardSample:
    def test_zero_samples(self):
        data = forward_sample(ex41_truth(), 0, seed=1)
        assert len(data) == 0

    def test_single_node_frequency(self):
        net = make_net([("V", "01")], [], {"V": [[0.25, 0.75]]})
        data = forward_sample(net, 100_000, seed=2)
        freq0 = float((data.codes[:, 0] == 0).mean())
        assert abs(freq0 - 0.25) < 0.01

    def test_ex43_class_frequency(self):
        truth = ex43_truth(n=6)
        data = forward_sample(truth, 100_000, seed=3)
        freq = float((data.codes[:, data.column("C")] == 1).mean())
        assert abs(freq - 0.25) < 0.01

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="sample size must be non-negative"):
            forward_sample(ex41_truth(), -1)

    def test_deterministic_given_seed(self):
        net = ex41_truth()
        a = forward_sample(net, 500, seed=42)
        b = forward_sample(net, 500, seed=42)
        assert np.array_equal(a.codes, b.codes)

    def test_draw_above_a_short_row_stays_in_the_domain(self):
        # validate accepts rows summing to 1 - 1e-9; a draw of u in
        # [row sum, 1) must still land on a value, not one past the last
        class HighDraws(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(size, 1.0 - 1e-12)

        net = make_net([("A", "01")], [], {"A": [[0.5, 0.5 - 5e-10]]})
        assert validate(net) == []
        data = forward_sample(net, 3, HighDraws(np.random.PCG64(0)))
        assert data.codes[:, 0].tolist() == [1, 1, 1]

    def test_empirical_joint_converges_in_total_variation(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            net = random_net(rng, n_vars=4, arities=(2,))
            data = forward_sample(net, 100_000, seed=rng)
            counts = np.zeros(16)
            flat = (data.codes * np.array([8, 4, 2, 1])).sum(axis=1)
            for idx in range(16):
                counts[idx] = (flat == idx).sum()
            emp = counts / counts.sum()
            exact = np.array([
                net.joint_prob({v: str((idx >> (3 - j)) & 1) for j, v in enumerate(net.names)})
                for idx in range(16)])
            tv = 0.5 * np.abs(emp - exact).sum()
            assert tv < 0.02


class TestCollectUntilMatched:
    def test_empty_evidence_draws_exactly_the_quota(self):
        data = collect_until_matched(ex41_truth(), [{}], per_evidence=137, seed=5)
        assert len(data) == 137

    def test_postcondition_counts_and_stop_point(self):
        net = ex41_truth()
        evidences = [{"A": "1"}, {"A": "0", "C": "0"}]
        data = collect_until_matched(net, evidences, per_evidence=100, seed=6)
        counts = [int(data.match_mask(e).sum()) for e in evidences]
        assert all(c >= 100 for c in counts)
        # the final tuple must be the one completing some deficient pattern
        trimmed = Dataset(data.variables, data.domains, data.codes[:-1])
        assert any(int(trimmed.match_mask(e).sum()) < 100 for e in evidences)

    def test_expected_draws_track_inverse_evidence_probability(self):
        # evidence probability 0.5 and quota 100: mean total draws near 200
        net = ex41_truth()
        totals = []
        for s in range(100):
            data = collect_until_matched(net, [{"A": "1"}], per_evidence=100, seed=s)
            totals.append(len(data))
        mean = float(np.mean(totals))
        assert abs(mean - 200.0) <= 20.0

    def test_zero_probability_evidence_hits_the_cap(self, monkeypatch):
        import querybn.sampling as sampling

        monkeypatch.setattr(sampling, "DEFAULT_COLLECT_CAP", 2000)
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[1.0, 0.0]], "B": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(CapExceeded, match="drew 2000 tuples"):
            collect_until_matched(net, [{"A": "1"}], per_evidence=1, seed=7)

    def test_negative_quota_is_refused(self):
        with pytest.raises(ValueError, match="per_evidence must be non-negative"):
            collect_until_matched(ex41_truth(), [{"A": "1"}], per_evidence=-1)

    @pytest.mark.parametrize("evidences, per_evidence", [([{"A": "1"}], 0), ([], 5)],
                             ids=["zero-quota", "no-evidence"])
    def test_nothing_to_match_returns_an_empty_dataset(self, evidences, per_evidence):
        net = ex41_truth()
        data = collect_until_matched(net, evidences, per_evidence=per_evidence, seed=1)
        assert len(data) == 0 and data.codes.shape == (0, 3)
        assert data.variables == net.names
        assert data.domains == tuple(v.domain for v in net.variables)

    def test_all_tuples_are_returned_not_just_matches(self):
        net = ex41_truth()
        data = collect_until_matched(net, [{"A": "1"}], per_evidence=50, seed=8)
        assert len(data) > int(data.match_mask({"A": "1"}).sum()) >= 50


class TestDataset:
    @pytest.mark.parametrize("domains, codes, message", [
        ((("0", "1"), ("0", "1")), [[0, 1, 0]], r"codes must be a \(n_tuples, n_variables\)"),
        ((("0", "1"), ("0", "1")), [0, 1], r"codes must be a \(n_tuples, n_variables\)"),
        ((("0", "1"),), [[0, 7]], "one domain per column"),
        ((("0", "1"), ("0", "1")), [[0, 2]], "column 'B' has out-of-domain codes"),
        ((("0", "1"), ("0", "1")), [[-1, 0]], "column 'A' has out-of-domain codes"),
    ], ids=["too-many-columns", "one-dimensional", "one-domain-short", "code-above-domain",
            "negative-code"])
    def test_malformed_codes_are_refused(self, domains, codes, message):
        with pytest.raises(ValueError, match=message):
            Dataset(("A", "B"), domains, codes)

    def test_a_repeated_name_cannot_be_read_two_ways(self):
        # labels(0) would read the second column, match_mask and cond_freq the first
        with pytest.raises(ValueError, match="duplicate dataset columns"):
            Dataset(("A", "A"), (("0", "1"), ("0", "1")), [[0, 1]])

    def test_unknown_names_and_values(self):
        data = Dataset(("A", "B"), (("0", "1"), ("x", "y")), [[0, 1]])
        with pytest.raises(KeyError, match="dataset has no variable 'Z'"):
            data.column("Z")
        with pytest.raises(ValueError, match="value 'z' not in domain of 'B'"):
            data.encode({"A": "1", "B": "z"})
        assert data.encode({"B": "y", "A": "0"}) == {1: 1, 0: 0}

    def test_from_labels_refuses_a_short_row(self):
        with pytest.raises(ValueError, match="row 1: expected 2 values, got 1"):
            Dataset.from_labels(("A", "B"), (("0", "1"), ("0", "1")), [("0", "1"), ("1",)])

    @pytest.mark.parametrize("domains", [(("0", "1"),), (("0", "1"),) * 3],
                             ids=["one-domain-short", "one-domain-over"])
    def test_from_labels_refuses_a_domain_count_other_than_the_columns(self, domains):
        with pytest.raises(ValueError, match="one domain per column"):
            Dataset.from_labels(("A", "B"), domains, [("0", "1")])


class TestNetCodes:
    """How a dataset binds to a net: by variable name and domain."""

    def test_net_order_columns_are_a_view_not_a_copy(self):
        net = ex41_truth()
        data = forward_sample(net, 50, seed=20)
        codes = _net_codes(net, data)
        assert np.shares_memory(codes, data.codes) and np.array_equal(codes, data.codes)
        wider = Dataset(data.variables + ("Z",), data.domains + (("0", "1"),),
                        np.hstack([data.codes, np.zeros((50, 1), dtype=np.int64)]))
        codes = _net_codes(net, wider)
        assert np.shares_memory(codes, wider.codes) and np.array_equal(codes, data.codes)

    def test_shuffled_and_extra_columns_come_back_in_net_order(self):
        net = ex41_truth()
        data = forward_sample(net, 50, seed=21)
        order = [2, 0, 1]
        shuffled = Dataset(("Z",) + tuple(data.variables[j] for j in order),
                           (("0", "1"),) + tuple(data.domains[j] for j in order),
                           np.hstack([np.ones((50, 1), dtype=np.int64), data.codes[:, order]]))
        assert np.array_equal(_net_codes(net, shuffled), data.codes)

    def test_a_missing_variable_or_another_domain_is_refused(self):
        net = ex41_truth()
        with pytest.raises(KeyError, match="dataset has no variable 'X'"):
            _net_codes(net, Dataset(("A", "C"), (("0", "1"), ("0", "1")), [[0, 1]]))
        flipped = Dataset(("A", "X", "C"), (("0", "1"), ("1", "0"), ("0", "1")), [[0, 1, 1]])
        with pytest.raises(ValueError, match="dataset domain of 'X' does not match the net"):
            _net_codes(net, flipped)


class TestCondFreq:
    def test_all_tuples_match(self):
        net = make_net([("V", "01")], [], {"V": [[0.0, 1.0]]})
        data = forward_sample(net, 50, seed=9)
        assert cond_freq(data, {"V": "1"}, {}) == 1.0

    def test_ex41_conditional_concentrates_on_truth(self):
        data = forward_sample(ex41_truth(), 10_000, seed=10)
        assert abs(cond_freq(data, {"C": "1"}, {"A": "1"}) - 1.0) < 0.02

    def test_contradictory_event_has_zero_frequency(self):
        data = forward_sample(ex41_truth(), 100, seed=11)
        assert cond_freq(data, {"A": "1"}, {"A": "0"}) == 0.0

    def test_no_evidence_match_raises(self):
        net = make_net([("V", "01")], [], {"V": [[0.0, 1.0]]})
        data = forward_sample(net, 50, seed=12)
        with pytest.raises(ValueError, match="match"):
            cond_freq(data, {"V": "1"}, {"V": "0"})

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_count_identity(self, n):
        data = forward_sample(ex41_truth(), n, seed=13)
        y = {"A": "1"}
        n_y = int(data.match_mask(y).sum())
        if n_y == 0:
            return
        f = cond_freq(data, {"C": "1"}, y)
        assert 0.0 <= f <= 1.0
        assert f * n_y == pytest.approx(round(f * n_y), abs=1e-9)


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        net = ex41_truth()
        data = forward_sample(net, 200, seed=14)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        loaded = load_dataset(path, net)
        order = [loaded.column(v) for v in data.variables]
        assert np.array_equal(loaded.codes[:, order], data.codes)

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_matches_a_row_by_row_writer(self, tmp_path, n):
        import csv

        net = make_net([("A", ["lo", "a,b"]), ("B", ['q"t', "x", ""])], [("A", "B")],
                       {"A": [[0.5, 0.5]], "B": [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]})
        data = forward_sample(net, n, seed=16)
        path, reference = tmp_path / "d.csv", tmp_path / "ref.csv"
        save_dataset(data, path)
        with open(reference, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(data.variables)
            for i in range(len(data)):
                w.writerow([data.labels(i)[v] for v in data.variables])
        assert path.read_bytes() == reference.read_bytes()

    def test_byte_identical_across_runs(self, tmp_path):
        net = ex41_truth()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(forward_sample(net, 300, seed=15), p1)
        save_dataset(forward_sample(net, 300, seed=15), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loader_validates_against_net(self, tmp_path):
        net = ex41_truth()
        path = tmp_path / "d.csv"
        path.write_text("A,X,C\n1,1,2\n")
        with pytest.raises(ValueError, match="unknown value"):
            load_dataset(path, net)
        path.write_text("A,X\n1,1\n")
        with pytest.raises(ValueError, match="missing"):
            load_dataset(path, net)

    @pytest.mark.parametrize("text, message", [
        ("", "dataset file is empty"),
        ("A,X,C,Q\n", r"dataset columns not in net: \['Q'\]"),
        ("A,A,X\n", r"dataset missing variables: \['C'\]"),
        ("A,A,X,C\n0,0,1,1\n", "duplicate dataset columns"),
        ("A,X,C\n0,1\n", "row 0: expected 3 values, got 2"),
    ], ids=["empty", "unknown-column", "missing-before-duplicate", "duplicate", "short-row"])
    def test_loader_errors(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_dataset(path, ex41_truth())
