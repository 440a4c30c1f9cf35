"""Network representation: validation, factorization, graph queries."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybn import (BayesNet, Dag, EntryId, InvalidNetError, StatQuery, Variable,
                     clamp_row, d_separated, load_net, net_to_dict, relevant_entries,
                     save_net, validate)
from querybn.inference import cond_prob, enumerate_marginal
from querybn.queries import QueryDistribution
from querybn.random_nets import random_net

from helpers import chain_net, collider_net, enumerate_completions, make_net, naive_bayes_net


class TestValidate:
    def test_well_formed_chain_has_no_violations(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.3, 0.7]], "B": [[0.2, 0.8], [0.6, 0.4]]})
        assert validate(net) == []

    def test_row_sum_violation_is_reported(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.3, 0.7]], "B": [[0.6, 0.6], [0.5, 0.5]]})
        violations = validate(net)
        assert len(violations) == 1
        assert "sum" in violations[0] and "cpt[B]" in violations[0]

    def test_cycle_is_reported(self):
        vs = [Variable("A", ("0", "1")), Variable("B", ("0", "1"))]
        dag = Dag.from_edges(["A", "B"], [("A", "B"), ("B", "A")])
        net = BayesNet(vs, dag, {
            "A": BayesNet.uniform(vs, dag).cpts["A"],
            "B": BayesNet.uniform(vs, dag).cpts["B"],
        })
        assert any("cycle" in v for v in validate(net))

    def test_shape_and_range_violations(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.3, 0.7]], "B": [[0.2, 0.8]]})  # missing a row
        assert any("rows" in v for v in validate(net))
        net2 = make_net([("A", "01")], [], {"A": [[-0.2, 1.2]]})
        assert any("outside [0, 1]" in v for v in validate(net2))

    def test_clamped_mode_flags_boundary_entries(self):
        net = make_net([("A", "01")], [], {"A": [[0.0, 1.0]]})
        assert validate(net) == []
        assert any("clamp" in v for v in validate(net, eps_clamp=1e-6))


class TestJointProb:
    def test_ex41_bsq_hand_product(self):
        # 0.5 * 1.0 * 1.0, multiplied out from the fixture's stated entries
        from querybn.experiments import ex41_bsq

        assert ex41_bsq().joint_prob({"A": "1", "X": "1", "C": "1"}) == pytest.approx(0.5, abs=1e-12)

    def test_total_mass_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            net = random_net(rng, n_vars=4, arities=(2, 3))
            total = sum(net.joint_prob(a) for a in enumerate_completions(net, {}))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, n_vars=4)
        for a in enumerate_completions(net, {}):
            assert net.joint_prob(a) == pytest.approx(enumerate_marginal(net, a), abs=1e-12)

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            chain_net().joint_prob({"A": "1"})


class TestMarkovBlanket:
    def test_naive_bayes_class_blanket_is_all_attributes(self):
        net = naive_bayes_net(n=5)
        assert net.markov_blanket("C") == {f"A{i}" for i in range(1, 6)}

    def test_isolated_node_has_empty_blanket(self):
        net = make_net([("A", "01"), ("B", "01")], [], {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]]})
        assert net.markov_blanket("A") == frozenset()

    def test_chain_middle_node(self):
        assert chain_net().markov_blanket("X") == {"A", "C"}

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            chain_net().markov_blanket("Z")

    def test_blanket_is_minimal_separator_on_random_dags(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_net(rng, n_vars=int(rng.integers(4, 9)), max_parents=3)
            for v in net.names:
                blanket = net.markov_blanket(v)
                rest = set(net.names) - {v} - blanket
                if rest:
                    assert d_separated(net, {v}, rest, blanket)
                for dropped in blanket:
                    smaller = set(blanket) - {dropped}
                    assert not d_separated(net, {v}, rest | {dropped}, smaller)


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        assert d_separated(chain_net(), {"A"}, {"C"}, {"X"})
        assert not d_separated(chain_net(), {"A"}, {"C"}, set())

    def test_collider(self):
        net = collider_net()
        assert d_separated(net, {"A"}, {"B"}, set())
        assert not d_separated(net, {"A"}, {"B"}, {"C"})

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            d_separated(chain_net(), {"A"}, {"A"}, set())

    def test_agrees_with_enumeration_ci_on_random_dags(self):
        from helpers import ci_by_enumeration

        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(12):
            net = random_net(rng, n_vars=6, max_parents=2)
            names = list(net.names)
            rng.shuffle(names)
            xs, ys = {names[0]}, {names[1]}
            zs = set(names[2:2 + int(rng.integers(0, 3))])
            assert d_separated(net, xs, ys, zs) == ci_by_enumeration(net, xs, ys, zs)
            checked += 1
        assert checked == 12


class TestRelevantEntries:
    def test_empty_distribution(self):
        assert relevant_entries(chain_net(), []) == set()

    def test_prior_query_needs_only_the_prior(self):
        # For p(A | {}) on the chain, A's answer is its own prior row; the
        # downstream CPTs sum away.  Confirmed by the perturbation check below.
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        rel = relevant_entries(net, [StatQuery({"A": "1"})])
        assert rel == set(net.entry_ids("A"))

    def test_downstream_query_involves_chain_mechanism(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        rel = relevant_entries(net, [StatQuery({"C": "1"}, {"A": "1"})])
        assert rel == set(net.entry_ids("X")) | set(net.entry_ids("C"))

    def test_irrelevant_entries_cannot_move_any_answer(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            net = random_net(rng, n_vars=6, max_parents=2)
            queries = []
            from querybn.random_nets import random_query

            for _ in range(3):
                queries.append(random_query(rng, net, max_target=1, max_evidence=2))
            dist = QueryDistribution.uniform(list(dict.fromkeys(queries)))
            rel = relevant_entries(net, dist.queries())
            baseline = [cond_prob(net, qq.target, qq.evidence) for qq, _ in dist.atoms]
            for eid in set(net.entry_ids()) - rel:
                for delta in (0.05, -0.05):
                    t = np.array(net.cpts[eid.var].table)
                    t[eid.row, eid.value] = max(t[eid.row, eid.value] + delta, 1e-9)
                    t[eid.row] /= t[eid.row].sum()
                    moved = net.with_tables({eid.var: t})
                    for (qq, _), before in zip(dist.atoms, baseline):
                        after = cond_prob(moved, qq.target, qq.evidence)
                        assert abs(after - before) <= 1e-12


class TestRowIndexing:
    def test_last_parent_varies_fastest(self):
        net = make_net(
            [("P", "01"), ("Q", "abc"), ("V", "01")],
            [("P", "V"), ("Q", "V")],
            {"P": [[0.5, 0.5]],
             "Q": [[0.2, 0.3, 0.5]],
             "V": [[1, 0]] * 6},
        )
        # rows: (P=0,Q=a) (P=0,Q=b) (P=0,Q=c) (P=1,Q=a) ...
        assert net.row_index("V", {"P": "0", "Q": "a"}) == 0
        assert net.row_index("V", {"P": "0", "Q": "c"}) == 2
        assert net.row_index("V", {"P": "1", "Q": "a"}) == 3
        assert net.row_index("V", {"P": "1", "Q": "c"}) == 5

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None)
    def test_decode_row_roundtrip(self, row):
        net = make_net(
            [("P", "01"), ("Q", "abc"), ("V", "01")],
            [("P", "V"), ("Q", "V")],
            {"P": [[0.5, 0.5]], "Q": [[0.2, 0.3, 0.5]], "V": [[1, 0]] * 6},
        )
        assert net.row_index("V", net.decode_row("V", row)) == row


class TestWithTables:
    def test_a_derived_net_shares_the_structure_maps_and_answers_the_same(self):
        rng = np.random.default_rng(31)
        net = random_net(rng, n_vars=6, arities=(2, 3), max_parents=2)
        net.topological_order(), net.signature()
        tables = {v: rng.dirichlet([1.0] * net.arity(v), size=len(net.cpts[v].table))
                  for v in net.names[:3]}
        derived = net.with_tables(tables)
        for name in ("_var", "_code", "_children", "_topo", "_signature"):
            assert getattr(derived, name) is getattr(net, name)
        rebuilt = BayesNet(net.variables, net.dag, derived.cpts)
        for v in net.names:
            expected = tables[v] if v in tables else net.cpts[v].table
            assert np.array_equal(derived.cpts[v].table, expected)
            assert derived.children(v) == rebuilt.children(v)
            assert derived.markov_blanket(v) == rebuilt.markov_blanket(v)
        assert derived.topological_order() == rebuilt.topological_order()
        for _ in range(10):
            x, y = rng.choice(net.names, size=2, replace=False)
            q = ({x: "1"}, {y: "0"})
            assert cond_prob(derived, *q) == cond_prob(rebuilt, *q)
            assert cond_prob(net, *q) == cond_prob(net.with_tables({}), *q)


class TestClampRow:
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=5),
           st.floats(min_value=1e-9, max_value=0.01))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_normalization(self, raw, eps):
        row = clamp_row(np.array(raw), eps)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert row.min() >= eps
        assert row.max() <= 1 - eps


class TestNetFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = collider_net()
        path = tmp_path / "net.json"
        save_net(net, path)
        loaded = load_net(path)
        assert loaded.names == net.names
        for v in net.names:
            assert np.array_equal(loaded.cpts[v].table, net.cpts[v].table)
        assert loaded.dag.parents == net.dag.parents

    def test_loader_rejects_violations(self, tmp_path):
        doc = net_to_dict(collider_net())
        doc["cpts"]["A"] = [[0.6, 0.6]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetError, match="sum"):
            load_net(path)

    def test_loader_propagates_parse_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_net(path)

    def test_entry_ids_and_descriptions(self):
        net = chain_net()
        eid = EntryId("X", 1, 0)
        assert eid in set(net.entry_ids("X"))
        assert net.describe_entry(eid) == "e[X=0|A=1]"
