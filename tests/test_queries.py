"""Query model: patterns, distributions, sampling, labeling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybn import (LabeledQuery, QueryDistribution, QueryPattern, StatQuery,
                     ZeroEvidence, expand_pattern, is_markov_blanket_query,
                     label_queries, load_queries, save_queries)
from querybn.experiments import ex41_truth
from querybn.inference import enumerate_marginal
from querybn.random_nets import random_net, random_query

from helpers import certain_parent_net, chain_net, make_net, naive_bayes_net


def binary_net(n):
    return make_net([(f"A{i}", "01") for i in range(n)], [],
                    {f"A{i}": [[0.5, 0.5]] for i in range(n)})


class TestStatQuery:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            StatQuery({"A": "1"}, {"A": "0"})

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            StatQuery({}, {"A": "0"})

    def test_equality_ignores_binding_order(self):
        a = StatQuery({"C": "1"}, {"A": "0", "B": "1"})
        b = StatQuery({"C": "1"}, {"B": "1", "A": "0"})
        assert a == b and hash(a) == hash(b)
        assert a.id() == "P(C=1 | A=0,B=1)"

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            LabeledQuery(StatQuery({"A": "1"}), 1.5)


class TestExpandPattern:
    def test_classification_pattern_expands_to_all_assignments(self):
        # sq(C; A_1..A_n) over binaries: 2^(n+1) atoms of weight 1/2^(n+1)
        n = 3
        net = naive_bayes_net(n=n)
        pat = QueryPattern(("C",), tuple(f"A{i}" for i in range(1, n + 1)))
        atoms = expand_pattern(net, pat, 1.0)
        assert len(atoms) == 2 ** (n + 1)
        assert all(w == pytest.approx(1 / 2 ** (n + 1), abs=1e-15) for _, w in atoms)
        assert len({q for q, _ in atoms}) == len(atoms)

    def test_fully_pinned_pattern_is_single_atom(self):
        net = chain_net()
        pat = QueryPattern(("C",), ("A",), {"A": "1"})
        atoms = expand_pattern(net, pat, 0.4)
        # C itself still expands over its own domain
        assert len(atoms) == 2
        pat2 = QueryPattern(("C",), ("A",), {"A": "1"})
        # pinning everything except a 1-value expansion is exercised below

    def test_partially_pinned_quarter_weight(self):
        # sq(D; C=1, A1=0, A3) at weight 0.25 over binaries: D and A3 free,
        # so 4 atoms of 0.0625
        net = make_net([("C", "01"), ("D", "01"), ("A1", "01"), ("A3", "01")], [],
                       {v: [[0.5, 0.5]] for v in ("C", "D", "A1", "A3")})
        pat = QueryPattern(("D",), ("C", "A1", "A3"), {"C": "1", "A1": "0"})
        atoms = expand_pattern(net, pat, 0.25)
        assert len(atoms) == 4
        assert all(w == pytest.approx(0.0625, abs=1e-15) for _, w in atoms)

    def test_atom_cap(self):
        net = binary_net(12)
        pat = QueryPattern(("A0",), tuple(f"A{i}" for i in range(1, 12)))
        with pytest.raises(ValueError, match="atoms"):
            expand_pattern(net, pat, 1.0, atom_cap=100)

    @given(st.integers(min_value=1, max_value=4), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_weight_conservation(self, n_free, weight):
        net = binary_net(n_free + 1)
        pat = QueryPattern(("A0",), tuple(f"A{i}" for i in range(1, n_free + 1)))
        atoms = expand_pattern(net, pat, weight)
        assert sum(w for _, w in atoms) == pytest.approx(weight, abs=1e-12)


class TestQueryDistribution:
    def test_duplicates_merge_by_summing(self):
        q = StatQuery({"A": "1"})
        r = StatQuery({"A": "0"})
        dist = QueryDistribution([(q, 0.25), (q, 0.25), (r, 0.5)])
        assert len(dist) == 2
        assert dict((a.id(), w) for a, w in dist.atoms)[q.id()] == pytest.approx(0.5)

    def test_weight_sum_gate(self):
        q = StatQuery({"A": "1"})
        with pytest.raises(ValueError, match="sum"):
            QueryDistribution([(q, 0.5)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            QueryDistribution([(StatQuery({"A": "1"}), 0.0), (StatQuery({"A": "0"}), 1.0)])


class TestSampleQuery:
    def test_single_atom_always_returned(self):
        q = StatQuery({"A": "1"})
        dist = QueryDistribution([(q, 1.0)])
        assert all(dist.sample(np.random.default_rng(s)) == q for s in range(5))

    def test_two_atom_frequencies(self):
        dist = QueryDistribution.uniform([StatQuery({"A": "1"}), StatQuery({"A": "0"})])
        rng = np.random.default_rng(88)
        draws = dist.sample(rng, size=100_000)
        freq = sum(1 for d in draws if d.target == {"A": "1"}) / 100_000
        assert abs(freq - 0.5) < 0.01

    def test_section2_pattern_mixture_frequencies(self):
        # 30% sq(C; A1,A2,A3), 20% sq(C; A1,A2), 25% sq(D; C=1,A1=0,A3),
        # 25% sq(D; C=1,A1=1,A3): pattern-level draw frequencies match.
        net = make_net([("C", "01"), ("D", "01")] + [(f"A{i}", "01") for i in (1, 2, 3)], [],
                       {v: [[0.5, 0.5]] for v in ("C", "D", "A1", "A2", "A3")})
        atoms = []
        atoms += expand_pattern(net, QueryPattern(("C",), ("A1", "A2", "A3")), 0.3)
        atoms += expand_pattern(net, QueryPattern(("C",), ("A1", "A2")), 0.2)
        atoms += expand_pattern(net, QueryPattern(("D",), ("C", "A1", "A3"), {"C": "1", "A1": "0"}), 0.25)
        atoms += expand_pattern(net, QueryPattern(("D",), ("C", "A1", "A3"), {"C": "1", "A1": "1"}), 0.25)
        dist = QueryDistribution(atoms)

        def pattern_of(q: StatQuery) -> str:
            if "C" in q.target:
                return "p1" if len(q.evidence) == 3 else "p2"
            return "p3" if q.evidence.get("A1") == "0" else "p4"

        rng = np.random.default_rng(99)
        draws = dist.sample(rng, size=100_000)
        counts = {"p1": 0, "p2": 0, "p3": 0, "p4": 0}
        for d in draws:
            counts[pattern_of(d)] += 1
        assert abs(counts["p1"] / 1e5 - 0.30) < 0.01
        assert abs(counts["p2"] / 1e5 - 0.20) < 0.01
        assert abs(counts["p3"] / 1e5 - 0.25) < 0.01
        assert abs(counts["p4"] / 1e5 - 0.25) < 0.01

    def test_hoeffding_style_frequency_bound(self):
        # |freq - weight| <= sqrt(ln(2/0.01) / (2M)) in at least 99% of trials
        dist = QueryDistribution([(StatQuery({"A": "1"}), 0.3), (StatQuery({"A": "0"}), 0.7)])
        M = 2000
        bound = math.sqrt(math.log(2 / 0.01) / (2 * M))
        ok = 0
        trials = 100
        for s in range(trials):
            rng = np.random.default_rng(1000 + s)
            draws = dist.sample(rng, size=M)
            freq = sum(1 for d in draws if d.target == {"A": "1"}) / M
            ok += abs(freq - 0.3) <= bound
        assert ok / trials >= 0.99

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            QueryDistribution([])


class TestIsMarkovBlanketQuery:
    def test_naive_bayes_full_evidence(self):
        net = naive_bayes_net(n=4)
        q = StatQuery({"C": "0"}, {f"A{i}": "0" for i in range(1, 5)})
        assert is_markov_blanket_query(net, q)

    def test_chain_evidence_missing_blanket(self):
        assert not is_markov_blanket_query(chain_net(), StatQuery({"C": "1"}, {"A": "1"}))

    def test_two_target_variables(self):
        net = chain_net()
        q = StatQuery({"A": "1", "C": "1"}, {"X": "1"})
        assert not is_markov_blanket_query(net, q)


class TestLabelQueries:
    def test_ex41_truth_labels(self):
        truth = ex41_truth()
        lqs = label_queries(truth, [StatQuery({"C": "1"}, {"A": "1"}),
                                    StatQuery({"C": "1"}, {"A": "0"})])
        assert [lq.label for lq in lqs] == [pytest.approx(1.0, abs=1e-12),
                                            pytest.approx(0.0, abs=1e-12)]

    def test_self_conditioned_target_is_certain(self):
        truth = chain_net(p_a=0.3)
        # evidence pins X; query asks for the same X value through a blanketed route
        lq = label_queries(truth, [StatQuery({"X": "1"}, {"A": "1", "C": "1"})])[0]
        assert 0.0 <= lq.label <= 1.0
        # B(A=1, B=1) / B(B=1) rounds above 1 unless the answer is clipped
        lq = label_queries(certain_parent_net(), [StatQuery({"A": "1"}, {"B": "1"})])[0]
        assert lq.label == 1.0

    def test_labels_match_enumeration_oracle(self):
        rng = np.random.default_rng(30)
        net = random_net(rng, n_vars=6)
        qs = [random_query(rng, net, max_target=2, max_evidence=3) for _ in range(10)]
        lqs = label_queries(net, qs)
        for lq in lqs:
            merged = {**lq.query.target, **lq.query.evidence}
            expected = enumerate_marginal(net, merged) / enumerate_marginal(net, lq.query.evidence)
            assert lq.label == pytest.approx(expected, abs=1e-12)

    def test_illegal_query_raises(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[1.0, 0.0]], "B": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(ZeroEvidence):
            label_queries(net, [StatQuery({"B": "1"}, {"A": "1"})])


class TestQueryFile:
    def test_round_trip_atoms_patterns_merge_and_normalize(self, tmp_path):
        net = naive_bayes_net(n=2)
        doc = {
            "atoms": [
                {"target": {"C": "1"}, "evidence": {"A1": "0"}, "weight": 0.25, "label": 0.5},
                {"target": {"C": "1"}, "evidence": {"A1": "0"}, "weight": 0.25},
            ],
            "patterns": [
                {"target_vars": ["C"], "evidence_vars": ["A1", "A2"],
                 "pinned": {"A1": "1"}, "weight": 0.5},
            ],
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        qf = load_queries(path, net)
        weights = {q.id(): w for q, w in qf.atoms}
        assert weights["P(C=1 | A1=0)"] == pytest.approx(0.5)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        # the pattern contributes C x A2 combinations with A1 pinned: 4 atoms
        assert len(qf.atoms) == 5
        assert not qf.fully_labeled()

    def test_weight_sum_error(self, tmp_path):
        net = chain_net()
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"atoms": [
            {"target": {"C": "1"}, "evidence": {}, "weight": 0.7}]}))
        with pytest.raises(ValueError, match="sum"):
            load_queries(path, net)

    def test_conflicting_duplicate_labels_rejected(self, tmp_path):
        net = chain_net()
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"atoms": [
            {"target": {"C": "1"}, "evidence": {}, "weight": 0.5, "label": 0.2},
            {"target": {"C": "1"}, "evidence": {}, "weight": 0.5, "label": 0.9}]}))
        with pytest.raises(ValueError, match="conflicting"):
            load_queries(path, net)

    def test_save_then_load(self, tmp_path):
        net = chain_net()
        atoms = [(StatQuery({"C": "1"}, {"A": "1"}), 0.5, 1.0),
                 (StatQuery({"C": "1"}, {"A": "0"}), 0.5, 0.0)]
        path = tmp_path / "q.json"
        save_queries(path, atoms)
        qf = load_queries(path, net)
        assert qf.fully_labeled()
        assert {lq.label for lq in qf.labeled()} == {0.0, 1.0}
