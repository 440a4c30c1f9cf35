"""Exact inference: elimination engine vs enumeration oracle, conditionals,
and the Markov-blanket fast path."""

import numpy as np
import pytest

from querybn import BayesNet, Dag, StatQuery, ZeroEvidence
from querybn.experiments import ex41_bp, ex41_bsq, ex42_query, ex42_truth
from querybn.inference import (PLAN_CACHE_SIZE, EnumerationCapExceeded, _compile, _forward,
                               _replay, _value_and_grad, answer, cond_prob, enumerate_marginal,
                               family_posterior, is_markov_blanket_query, marginal,
                               mb_posterior, mb_query)
from querybn.random_nets import random_blanket_query, random_net, random_query

from helpers import (chain_net, enumerate_completions, make_net, naive_bayes_net,
                     perturb_entry)


class TestMarginal:
    def test_full_assignment_equals_joint(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        for a in enumerate_completions(net, {}):
            assert marginal(net, a) == pytest.approx(net.joint_prob(a), abs=1e-12)

    def test_empty_assignment_is_total_mass(self):
        assert marginal(chain_net(), {}) == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration_on_random_nets(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            net = random_net(rng, n_vars=int(rng.integers(2, 13)), arities=(2,), max_parents=3)
            names = list(net.names)
            k = int(rng.integers(0, len(names) + 1))
            picks = rng.choice(len(names), size=k, replace=False)
            a = {names[i]: str(rng.integers(0, 2)) for i in picks}
            assert marginal(net, a) == pytest.approx(enumerate_marginal(net, a), abs=1e-12)


class TestEnumerationOracle:
    def test_single_node_prior(self):
        net = make_net([("V", "01")], [], {"V": [[0.3, 0.7]]})
        assert enumerate_marginal(net, {"V": "0"}) == pytest.approx(0.3, abs=1e-15)

    def test_two_node_chain_total_probability(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.3, 0.7]], "B": [[0.2, 0.8], [0.6, 0.4]]})
        expected = 0.3 * 0.8 + 0.7 * 0.4  # law of total probability, by hand
        assert enumerate_marginal(net, {"B": "1"}) == pytest.approx(expected, abs=1e-15)

    def test_cap_exceeded(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, n_vars=6, arities=(2,))
        with pytest.raises(EnumerationCapExceeded):
            enumerate_marginal(net, {}, cap=5)


class TestCondProb:
    def test_ex41_bsq_answers_the_query_perfectly(self):
        assert cond_prob(ex41_bsq(), {"C": "1"}, {"A": "1"}) == pytest.approx(1.0, abs=1e-12)

    def test_ex41_bp_gives_half(self):
        # At uniform parameters X carries no information; enumeration agrees.
        bp = ex41_bp()
        by_enum = (enumerate_marginal(bp, {"C": "1", "A": "1"})
                   / enumerate_marginal(bp, {"A": "1"}))
        assert by_enum == pytest.approx(0.5, abs=1e-12)
        assert cond_prob(bp, {"C": "1"}, {"A": "1"}) == pytest.approx(0.5, abs=1e-12)

    def test_self_conditioning_is_one(self):
        net = chain_net(p_a=0.3)
        assert cond_prob(net, {"A": "1"}, {"A": "1"}) == pytest.approx(1.0, abs=1e-15)

    def test_conflicting_overlap_is_impossible_event(self):
        assert cond_prob(chain_net(), {"A": "1"}, {"A": "0"}) == 0.0

    def test_product_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_net(rng, n_vars=6)
            q = random_query(rng, net, max_target=2, max_evidence=2)
            lhs = cond_prob(net, q.target, q.evidence) * marginal(net, q.evidence)
            rhs = marginal(net, {**q.target, **q.evidence})
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_naive_bayes_with_a_hundred_children_matches_closed_form(self):
        # 101 factors touch C and 56 variables are summed out: more than
        # einsum's 64 operands in one call and its 52 subscript letters
        net = ex42_truth(100)
        y = {f"A{i}": "0" if i <= 5 else "1" for i in range(1, 46)}
        log_c0 = np.log(0.5) + 5 * np.log(0.2) + 40 * np.log(0.8)
        log_c1 = np.log(0.5) + 5 * np.log(0.05) + 40 * np.log(0.95)
        expected = 1.0 / (1.0 + np.exp(log_c1 - log_c0))
        assert 0.1 < expected < 0.9
        assert cond_prob(net, {"C": "0"}, y) == pytest.approx(expected, abs=1e-12)

    def test_zero_evidence_raises(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[1.0, 0.0]], "B": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(ZeroEvidence):
            cond_prob(net, {"B": "1"}, {"A": "1"})

    def test_zero_evidence_message_names_at_most_eight_bindings(self):
        evidence = ex42_query(600).evidence
        exc = ZeroEvidence(evidence)
        shown = ", ".join(f"{k}={v}" for k, v in sorted(evidence.items())[:8])
        assert str(exc) == f"evidence has zero probability: {shown}, … (592 more)"
        assert exc.evidence == evidence
        eight = dict(sorted(evidence.items())[:8])
        assert str(ZeroEvidence(eight)) == f"evidence has zero probability: {shown}"
        assert str(ZeroEvidence({})) == "evidence has zero probability: {}"



def _random_evidence(rng, net, max_size=4):
    names = list(net.names)
    k = int(rng.integers(0, min(max_size, len(names)) + 1))
    return {names[i]: str(rng.integers(0, net.arity(names[i])))
            for i in rng.choice(len(names), size=k, replace=False)}


def _unnormalized(rng, net):
    """The same structure with rows that do not sum to one."""
    return net.with_tables({v: net.cpts[v].table * rng.uniform(0.5, 1.5, net.cpts[v].table.shape)
                            for v in net.names})


class TestPlans:
    def test_nets_sharing_a_structure_get_their_own_answers(self):
        rng = np.random.default_rng(25)
        a = random_net(rng, n_vars=7, arities=(2, 3), max_parents=3)
        b = _unnormalized(rng, a)
        other = random_net(rng, n_vars=7, arities=(2, 3), max_parents=3)  # same names
        assert other.names == a.names and other.signature() != a.signature()
        evidences = [_random_evidence(rng, a, max_size=3) for _ in range(10)]
        _compile.cache_clear()
        for e in evidences:
            for net in (a, b):
                assert marginal(net, e) == pytest.approx(enumerate_marginal(net, e), abs=1e-12)
            e_other = {k: str(min(int(v), other.arity(k) - 1)) for k, v in e.items()}
            assert marginal(other, e_other) == pytest.approx(enumerate_marginal(other, e_other),
                                                             abs=1e-12)
        compiled = _compile.cache_info().misses
        # a net built from scratch with an equal structure shares every plan
        rebuilt = BayesNet(list(a.variables), Dag(a.dag.nodes, dict(a.dag.parents)), b.cpts)
        assert [marginal(rebuilt, e) for e in evidences] == [marginal(b, e) for e in evidences]
        assert _compile.cache_info().misses == compiled
        assert _compile.cache_info().maxsize == PLAN_CACHE_SIZE
        # a family posterior replays the plan marginal compiled for its evidence
        for e in evidences:
            for v in a.names:
                family_posterior(b, v, e)
        assert _compile.cache_info().misses == compiled

    def test_cache_hit_is_bit_identical_to_a_cold_plan(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            net = random_net(rng, n_vars=int(rng.integers(2, 10)), arities=(2, 3, 4),
                             max_parents=3)
            e = _random_evidence(rng, net)
            v = str(rng.choice(net.names))
            fam_e = {k: x for k, x in e.items() if k != v}
            warm = (marginal(net, e), family_posterior(net, v, fam_e))
            hit = (marginal(net, e), family_posterior(net, v, fam_e))
            _compile.cache_clear()
            cold = (marginal(net, e), family_posterior(net, v, fam_e))
            for got in (hit, cold):
                assert got[0] == warm[0]
                assert np.array_equal(got[1], warm[1])

    def test_planned_elimination_matches_enumeration(self):
        rng = np.random.default_rng(27)
        for i in range(60):
            net = random_net(rng, n_vars=int(rng.integers(2, 10)), arities=(2, 3, 4),
                             max_parents=3)
            if i % 2:
                net = _unnormalized(rng, net)
            for _ in range(3):
                e = _random_evidence(rng, net)
                assert marginal(net, e) == pytest.approx(enumerate_marginal(net, e), abs=1e-12)

    def test_reverse_pass_matches_exact_differences(self):
        # a marginal is affine in each entry, so a central difference of
        # enumerated marginals is exact up to roundoff, zero entries included
        rng = np.random.default_rng(28)
        h = 0.05
        for _ in range(12):
            net = random_net(rng, n_vars=int(rng.integers(2, 7)), arities=(2, 3), max_parents=2)
            net = _unnormalized(rng, net)
            zeroed = str(rng.choice(net.names))
            t = np.array(net.cpts[zeroed].table)
            t[0, 0] = 0.0
            net = net.with_tables({zeroed: t})
            e = _random_evidence(rng, net, max_size=3)
            z, dz = _value_and_grad(net, e, net.names)
            assert z == marginal(net, e)
            assert set(dz) == set(net.names)
            for eid in net.entry_ids():
                fd = (enumerate_marginal(perturb_entry(net, eid, h), e)
                      - enumerate_marginal(perturb_entry(net, eid, -h), e)) / (2 * h)
                assert dz[eid.var][eid.row, eid.value] == pytest.approx(fd, abs=1e-12)

    def test_a_batched_replay_gives_each_element_its_own_bits(self):
        # elements share the structure and the evidence variables and sit on
        # two batch axes, candidates x rows, as the fitter's line-search
        # rounds do; a register shared by the rows of a candidate has size 1
        # on the row axis and is a strided view, and one shared by every
        # element carries no batch axis
        rng = np.random.default_rng(29)
        for _ in range(300):
            net = random_net(rng, n_vars=int(rng.integers(2, 9)), arities=(2, 3, 4),
                             max_parents=3)
            e = _random_evidence(rng, net)
            cands, size = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            elems = [[_forward(_unnormalized(rng, net), e) for _ in range(size)]
                     for _ in range(cands)]
            plan, n = elems[0][0][0], len(net.names)
            regs = []
            for i, kind in enumerate(rng.choice(3, size=n, p=[0.5, 0.3, 0.2])):
                if kind == 0:
                    reg = np.stack([np.stack([el[2][i] for el in row]) for row in elems])
                elif kind == 1:
                    reg = np.stack([np.stack([row[0][2][i]] * 2) for row in elems])[:, :1]
                else:
                    reg = elems[0][0][2][i]
                regs.append(reg)
                for row in elems if kind else ():
                    for el in row:
                        el[2][i] = reg if kind == 2 else row[0][2][i]
            singles = [[_replay(plan, el[2][:n]) for el in row] for row in elems]
            for r, batched in enumerate(_replay(plan, regs)):
                for c, row in enumerate(singles):
                    for j, single in enumerate(row):
                        got = np.broadcast_to(batched, (cands, size) + single[r].shape)[c, j]
                        assert got.tobytes() == single[r].tobytes()

    def test_reverse_pass_returns_only_the_requested_tables(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        z, dz = _value_and_grad(net, {"C": "1"}, ("X",))
        assert z == marginal(net, {"C": "1"}) and set(dz) == {"X"}
        # B(C=1) = sum over a, x of e[A=a] e[X=x|A=a] e[C=1|X=x]
        expected = np.array([[0.7 * 0.4, 0.7 * 0.8], [0.3 * 0.4, 0.3 * 0.8]])
        assert np.allclose(dz["X"], expected, atol=1e-15)


class TestMbQuery:
    def test_childless_node_returns_cpt_entry(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        # C has no children; evidence = its parent X
        assert mb_query(net, "C", "1", {"X": "1"}) == pytest.approx(0.8, abs=1e-15)

    def test_naive_bayes_posterior_matches_global_inference(self):
        net = naive_bayes_net(n=6, p_c=0.35, p_a_c0=0.15, p_a_c1=0.6)
        y = {f"A{i}": str(i % 2) for i in range(1, 7)}
        assert mb_query(net, "C", "1", y) == pytest.approx(
            cond_prob(net, {"C": "1"}, y), abs=1e-12)

    def test_equals_cond_prob_on_random_blanket_queries(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            net = random_net(rng, n_vars=int(rng.integers(3, 8)), arities=(2, 3))
            q = random_blanket_query(rng, net)
            (v, val), = q.target.items()
            assert mb_query(net, v, val, q.evidence) == pytest.approx(
                cond_prob(net, q.target, q.evidence), abs=1e-12)

    def test_posterior_normalizes(self):
        rng = np.random.default_rng(23)
        net = random_net(rng, n_vars=5, arities=(2, 3))
        q = random_blanket_query(rng, net)
        (v, _), = q.target.items()
        assert mb_posterior(net, v, q.evidence).sum() == pytest.approx(1.0, abs=1e-9)

    def test_missing_blanket_member_rejected(self):
        net = chain_net()
        with pytest.raises(ValueError, match="Markov blanket"):
            mb_query(net, "X", "1", {"A": "1"})  # child C missing

    def test_all_scores_zero_is_zero_evidence(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.5, 0.5]], "B": [[1.0, 0.0], [1.0, 0.0]]})
        with pytest.raises(ZeroEvidence):
            mb_query(net, "A", "1", {"B": "1"})


class TestAnswerDispatch:
    def test_blanket_query_takes_fast_path_with_equal_value(self):
        net = naive_bayes_net(n=4)
        q = StatQuery({"C": "0"}, {f"A{i}": "0" for i in range(1, 5)})
        assert is_markov_blanket_query(net, q)
        assert answer(net, q) == pytest.approx(cond_prob(net, q.target, q.evidence), abs=1e-12)

    def test_non_blanket_query_uses_general_path(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        q = StatQuery({"C": "1"}, {"A": "1"})
        assert not is_markov_blanket_query(net, q)
        assert answer(net, q) == pytest.approx(cond_prob(net, q.target, q.evidence), abs=1e-15)

    def test_empty_evidence_is_the_prior(self):
        net = chain_net(p_a=0.3)
        q = StatQuery({"A": "1"})
        assert answer(net, q) == pytest.approx(marginal(net, {"A": "1"}), abs=1e-15)

    def test_target_values_sum_to_one_over_domain(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            net = random_net(rng, n_vars=5, arities=(2, 3))
            q = random_blanket_query(rng, net)
            (v, _), = q.target.items()
            total = sum(answer(net, StatQuery({v: val}, q.evidence)) for val in net.domain(v))
            assert total == pytest.approx(1.0, abs=1e-9)
