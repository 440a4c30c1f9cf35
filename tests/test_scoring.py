"""Score functionals: query-weighted squared error and log-loss diagnostics."""

import math

import numpy as np
import pytest

from querybn import (LabeledQuery, QueryDistribution, StatQuery, UnmatchedEvidence,
                     ZeroProbability, empirical_err, empirical_err_from_events,
                     ll_decomposition, nll, true_err, true_kl)
from querybn.experiments import (ex41_bp, ex41_bsq, ex41_distribution,
                                 ex41_labeled_queries, ex41_truth)
from querybn.inference import ZeroEvidence, answer, marginal, mb_query
from querybn.learning import ofe
from querybn.random_nets import random_net, random_query
from querybn.sampling import Dataset, forward_sample

from helpers import (chain_net, enumerate_completions, make_net, naive_bayes_net,
                     ruled_out_blanket_net)


class TestTrueErr:
    def test_ex41_values(self):
        truth, dist = ex41_truth(), ex41_distribution()
        assert true_err(ex41_bp(), dist, truth).aggregate == pytest.approx(0.25, abs=1e-9)
        assert true_err(ex41_bsq(), dist, truth).aggregate == pytest.approx(0.0, abs=1e-9)

    def test_truth_scores_itself_perfectly(self):
        rng = np.random.default_rng(40)
        net = random_net(rng, n_vars=5)
        dist = QueryDistribution.uniform(
            [random_query(rng, net, max_target=1, max_evidence=2) for _ in range(4)])
        assert true_err(net, dist, net).aggregate == pytest.approx(0.0, abs=1e-15)

    def test_weight_scaling_invariance(self):
        truth = ex41_truth()
        qs = [lq.query for lq in ex41_labeled_queries()]
        d1 = QueryDistribution([(qs[0], 0.5), (qs[1], 0.5)])
        scaled = [(qs[0], 0.5 * 7.0), (qs[1], 0.5 * 7.0)]
        total = sum(w for _, w in scaled)
        d2 = QueryDistribution([(q, w / total) for q, w in scaled])
        bp = ex41_bp()
        assert true_err(bp, d1, truth).aggregate == pytest.approx(
            true_err(bp, d2, truth).aggregate, abs=1e-15)

    def test_zero_err_without_equality_of_nets(self):
        # perfect on the support, very different elsewhere
        truth, dist = ex41_truth(), ex41_distribution()
        bsq = ex41_bsq()
        assert true_err(bsq, dist, truth).aggregate == pytest.approx(0.0, abs=1e-12)
        assert answer(bsq, StatQuery({"X": "1"}, {"A": "1"})) != pytest.approx(
            answer(truth, StatQuery({"X": "1"}, {"A": "1"})), abs=1e-3)

    def test_illegal_atom_under_truth_raises(self):
        truth = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                         {"A": [[1.0, 0.0]], "B": [[0.5, 0.5], [0.5, 0.5]]})
        dist = QueryDistribution([(StatQuery({"B": "1"}, {"A": "1"}), 1.0)])
        with pytest.raises(ZeroEvidence):
            true_err(ex41_bp() if False else truth, dist, truth)

    def test_aggregate_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            truth = random_net(rng, n_vars=5)
            hyp = random_net(rng, n_vars=5)
            dist = QueryDistribution.uniform(
                [random_query(rng, truth, max_target=1, max_evidence=2) for _ in range(5)])
            agg = true_err(hyp, dist, truth).aggregate
            assert 0.0 <= agg <= 1.0


class TestEmpiricalErr:
    def test_self_labels_score_zero(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        qs = [StatQuery({"C": "1"}, {"A": "1"}), StatQuery({"X": "0"})]
        lqs = [LabeledQuery(q, answer(net, q)) for q in qs]
        assert empirical_err(net, lqs).aggregate == pytest.approx(0.0, abs=1e-15)

    def test_ex41_labeled_queries_against_bsq(self):
        assert empirical_err(ex41_bsq(), ex41_labeled_queries()).aggregate == pytest.approx(
            0.0, abs=1e-12)

    def test_full_support_multiplicity_matches_true_err(self):
        truth, dist = ex41_truth(), ex41_distribution()
        bp = ex41_bp()
        # weights 0.5/0.5 as multiplicities out of 2
        lqs = []
        for q, w in dist.atoms:
            lqs.extend([LabeledQuery(q, answer(truth, q))] * int(round(w * 2)))
        assert empirical_err(bp, lqs).aggregate == pytest.approx(
            true_err(bp, dist, truth).aggregate, abs=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            empirical_err(ex41_bp(), [])

    def test_weights_weight_each_row_and_must_match_the_queries(self):
        # B_p answers 0.5 to both queries: squared errors 0.25 and 0
        bp = ex41_bp()
        dist = QueryDistribution([(StatQuery({"C": "1"}, {"A": "1"}), 0.9, 1.0),
                                  (StatQuery({"C": "1"}, {"A": "0"}), 0.1, 0.5)])
        report = empirical_err(bp, dist.labeled(), dist.weights())
        assert [r.weight for r in report.rows] == [0.9, 0.1]
        assert report.aggregate == pytest.approx(0.225, abs=1e-15)
        assert empirical_err(bp, dist.labeled()).aggregate == pytest.approx(0.125, abs=1e-15)
        data = forward_sample(ex41_truth(), 500, seed=3)
        events = empirical_err_from_events(bp, dist.queries(), data, dist.weights())
        assert [r.weight for r in events.rows] == [0.9, 0.1]
        assert events.aggregate == sum(r.weight * r.sq_error for r in events.rows)
        with pytest.raises(ValueError, match="weights must match queries"):
            empirical_err(bp, dist.labeled(), [1.0])

    def test_hypothesis_side_zero_evidence_is_noted_not_fatal(self):
        # unclamped hypothesis that assigns zero mass to one query's evidence
        hyp = chain_net(p_a=0.0, p_x_a=(0.3, 0.6), p_c_x=(0.2, 0.9))
        lqs = [LabeledQuery(StatQuery({"C": "1"}, {"A": "1"}), 0.5),
               LabeledQuery(StatQuery({"C": "1"}, {"A": "0"}), 0.5)]
        report = empirical_err(hyp, lqs)
        assert report.n_errors == 1
        assert math.isfinite(report.aggregate)
        noted = [r for r in report.rows if r.note][0]
        assert noted.query.evidence == {"A": "1"}
        # a blanket query too, although the blanket's rows alone answer 0.9
        hyp, q = ruled_out_blanket_net()
        report = empirical_err(hyp, [LabeledQuery(q, 0.0)])
        assert report.n_errors == 1 and report.aggregate == 0.0
        assert report.rows[0].note == "hypothesis assigns zero probability to the evidence"


class TestScoreRows:
    def test_each_distinct_query_is_answered_once_and_fanned_out_in_row_order(self, monkeypatch):
        import querybn.scoring as scoring

        rng = np.random.default_rng(45)
        net = random_net(rng, n_vars=6, arities=(2, 3))
        distinct = [random_query(rng, net, max_target=2, max_evidence=3) for _ in range(4)]
        # repeats, one of them with its bindings in another order
        flipped = StatQuery(dict(reversed(list(distinct[0].target.items()))),
                            dict(reversed(list(distinct[0].evidence.items()))))
        drawn = [distinct[i] for i in (0, 1, 0, 2, 3, 3, 1, 0)] + [flipped]
        lqs = [LabeledQuery(q, float(rng.random())) for q in drawn]
        w = 1.0 / len(lqs)
        per_row = [answer(net, lq.query) for lq in lqs]
        aggregate = 0.0
        for lq, hyp in zip(lqs, per_row):
            aggregate += w * (hyp - lq.label) ** 2
        calls = []
        monkeypatch.setattr(scoring, "answer", lambda b, q: calls.append(q) or answer(b, q))
        report = empirical_err(net, lqs)
        assert len(calls) == len(set(drawn)) == 4
        assert [r.hypothesis for r in report.rows] == per_row
        assert [r.query for r in report.rows] == drawn
        assert report.aggregate == aggregate

    def test_repeated_zero_evidence_query_notes_every_row(self):
        hyp = chain_net(p_a=0.0, p_x_a=(0.3, 0.6), p_c_x=(0.2, 0.9))
        bad = LabeledQuery(StatQuery({"C": "1"}, {"A": "1"}), 0.5)
        good = LabeledQuery(StatQuery({"C": "1"}, {"A": "0"}), 0.5)
        report = empirical_err(hyp, [bad, good, bad])
        assert [r.note is not None for r in report.rows] == [True, False, True]
        assert report.aggregate == (1 / 3) * report.rows[1].sq_error


class TestEmpiricalErrFromEvents:
    def test_empty_query_list_rejected(self):
        data = forward_sample(ex41_truth(), 10, seed=1)
        with pytest.raises(ValueError, match="empirical_err_from_events needs at least one query"):
            empirical_err_from_events(ex41_bp(), [], data)

    def test_single_matching_tuple(self):
        net = ex41_bp()
        data = Dataset(("A", "X", "C"), (("0", "1"),) * 3, np.array([[1, 1, 1]]))
        q = StatQuery({"C": "1"}, {"A": "1"})
        report = empirical_err_from_events(net, [q], data)
        # reference frequency is 1; hypothesis answers 0.5
        assert report.rows[0].reference == pytest.approx(1.0)
        assert report.aggregate == pytest.approx((0.5 - 1.0) ** 2, abs=1e-12)

    def test_unmatched_evidence_lists_queries(self):
        net = ex41_bp()
        # with no tuples at all, an evidence-free query is unmatched too
        for q, codes in [(StatQuery({"C": "1"}, {"A": "1"}), [[0, 0, 0]]),
                         (StatQuery({"C": "1"}), np.zeros((0, 3)))]:
            data = Dataset(("A", "X", "C"), (("0", "1"),) * 3, np.array(codes))
            with pytest.raises(UnmatchedEvidence) as err:
                empirical_err_from_events(net, [q], data)
            assert q.id() in err.value.query_ids

    def test_event_based_estimate_lands_near_true_err(self):
        # eps = delta = 0.2 at the prescribed collection sizes; deviation beyond eps in
        # at most a delta fraction of seeded runs
        from querybn.bounds import m_prime_d, m_sq

        truth, dist = ex41_truth(), ex41_distribution()
        bp = ex41_bp()
        eps = delta = 0.2
        per = m_prime_d(eps, delta, m_sq(eps, delta))
        true_value = true_err(bp, dist, truth).aggregate
        misses = 0
        trials = 10
        for s in range(trials):
            rng = np.random.default_rng(500 + s)
            qs = dist.sample(rng, size=m_sq(eps, delta))
            from querybn.sampling import collect_until_matched

            data = collect_until_matched(truth, [q.evidence for q in dist.queries()],
                                         per_evidence=per, seed=rng)
            est = empirical_err_from_events(bp, qs, data).aggregate
            misses += abs(est - true_value) >= eps
        assert misses / trials <= delta


class TestNll:
    def test_uniform_net_gives_k_ln2(self):
        net = make_net([("A", "01"), ("X", "01"), ("C", "01")], [],
                       {v: [[0.5, 0.5]] for v in ("A", "X", "C")})
        data = forward_sample(ex41_truth(), 100, seed=42)
        assert nll(net, data) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_ofe_net_minimizes_nll_for_the_structure(self):
        rng = np.random.default_rng(43)
        truth = random_net(rng, n_vars=4)
        data = forward_sample(truth, 2000, seed=44)
        structure = truth
        best = ofe(structure, data, alpha=0.0)
        base = nll(best, data)
        for _ in range(10):
            jitter = {v: np.clip(best.cpts[v].table + rng.normal(0, 0.03, best.cpts[v].table.shape), 1e-6, None)
                      for v in best.names}
            jitter = {v: t / t.sum(axis=1, keepdims=True) for v, t in jitter.items()}
            assert nll(best.with_tables(jitter), data) >= base - 1e-12

    def test_converges_to_entropy(self):
        rng = np.random.default_rng(45)
        net = random_net(rng, n_vars=5)
        data = forward_sample(net, 100_000, seed=46)
        joint = [net.joint_prob(a) for a in enumerate_completions(net, {})]
        entropy = -sum(p * math.log(p) for p in joint if p > 0)
        assert abs(nll(net, data) - entropy) < 0.05

    def test_zero_probability_tuple_raises(self):
        net = make_net([("V", "01")], [], {"V": [[1.0, 0.0]]})
        data = Dataset(("V",), (("0", "1"),), np.array([[1]]))
        with pytest.raises(ZeroProbability):
            nll(net, data)

    def test_empty_data_is_refused(self):
        with pytest.raises(ValueError, match="nll needs a non-empty dataset"):
            nll(ex41_truth(), forward_sample(ex41_truth(), 0))


class TestTrueKl:
    def test_identity_is_zero(self):
        net = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        assert true_kl(net, net) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            t = random_net(rng, n_vars=4)
            b = random_net(rng, n_vars=4)
            assert true_kl(b, t) >= -1e-12

    def test_matches_direct_summation_oracle(self):
        truth = chain_net(p_a=0.3, p_x_a=(0.2, 0.9), p_c_x=(0.4, 0.8))
        hyp = chain_net(p_a=0.45, p_x_a=(0.35, 0.75), p_c_x=(0.5, 0.65))
        direct = 0.0
        for a in enumerate_completions(truth, {}):
            p = truth.joint_prob(a)
            if p > 0:
                direct += p * math.log(p / hyp.joint_prob(a))
        assert true_kl(hyp, truth) == pytest.approx(direct, abs=1e-12)

    def test_nets_over_different_variables_are_refused(self):
        other = make_net([("A", "01"), ("X", "01"), ("D", "01")], [],
                         {v: [[0.5, 0.5]] for v in "AXD"})
        with pytest.raises(ValueError, match="nets must share variables and domains"):
            true_kl(other, chain_net())

    def test_support_violation(self):
        truth = chain_net(p_a=0.5)
        hyp = make_net([("A", "01"), ("X", "01"), ("C", "01")],
                       [("A", "X"), ("X", "C")],
                       {"A": [[1.0, 0.0]], "X": [[0.5, 0.5]] * 2, "C": [[0.5, 0.5]] * 2})
        with pytest.raises(ZeroProbability):
            true_kl(hyp, truth)


class TestLlDecomposition:
    def test_terms_sum_to_total_log_likelihood(self):
        net = naive_bayes_net(n=3, p_c=0.4, p_a_c0=0.2, p_a_c1=0.7)
        data = forward_sample(net, 500, seed=48)
        cond, marg = ll_decomposition(net, data, "C")
        assert cond + marg == pytest.approx(-len(data) * nll(net, data), abs=1e-9)

    def test_single_tuple_uniform_net(self):
        net = make_net([("C", "01"), ("A", "01")], [],
                       {"C": [[0.5, 0.5]], "A": [[0.5, 0.5]]})
        data = Dataset(("C", "A"), (("0", "1"), ("0", "1")), np.array([[1, 0]]))
        cond, marg = ll_decomposition(net, data, "C")
        assert cond == pytest.approx(math.log(0.5), abs=1e-12)
        assert marg == pytest.approx(math.log(0.5), abs=1e-12)

    def test_reproducible_under_fixed_seed(self):
        net = naive_bayes_net(n=4)
        a = ll_decomposition(net, forward_sample(net, 300, seed=49), "C")
        b = ll_decomposition(net, forward_sample(net, 300, seed=49), "C")
        assert a == b


def _shuffled(rng, data: Dataset) -> Dataset:
    """``data`` with its columns in a random order other than the net's."""
    order = list(range(len(data.variables)))
    while order == sorted(order):
        order = [int(j) for j in rng.permutation(len(order))]
    return Dataset(tuple(data.variables[j] for j in order),
                   tuple(data.domains[j] for j in order), data.codes[:, order])


def _ll_by_elimination(b, data, class_var):
    """``ll_decomposition`` as sums over distinct tuples of
    ``count * log mb_query`` and ``count * log marginal(b, a)``."""
    uniq, counts = np.unique(data.codes, axis=0, return_counts=True)
    cond = marg = 0.0
    for row, count in zip(uniq, counts):
        labels = {v: data.domains[j][row[j]] for j, v in enumerate(data.variables)}
        evidence = {v: labels[v] for v in b.names if v != class_var}
        cond += count * math.log(mb_query(b, class_var, labels[class_var], evidence))
        marg += count * math.log(marginal(b, evidence))
    return cond, marg


class TestLlDecompositionReference:
    def test_matches_the_elimination_form_on_shuffled_columns(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            net = random_net(rng, n_vars=int(rng.integers(2, 7)), arities=(2, 3, 4),
                             max_parents=int(rng.integers(1, 4)))
            data = _shuffled(rng, forward_sample(net, int(rng.integers(1, 300)), seed=rng))
            class_var = str(rng.choice(net.names))
            got = ll_decomposition(net, data, class_var)
            for value, expected in zip(got, _ll_by_elimination(net, data, class_var)):
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_runs_no_elimination(self, monkeypatch):
        import querybn.inference as inference

        calls = []
        replay = inference._replay
        monkeypatch.setattr(inference, "_replay",
                            lambda *args: calls.append(1) or replay(*args))
        net = naive_bayes_net(n=4)
        data = forward_sample(net, 200, seed=51)
        assert marginal(net, {"C": "1"}) > 0.0 and len(calls) == 1  # the counter counts
        calls.clear()
        ll_decomposition(net, data, "C")
        assert calls == []

    def test_a_zero_probability_tuple_names_its_variable(self):
        net = make_net([("C", "01"), ("V", "01")], [],
                       {"C": [[0.5, 0.5]], "V": [[1.0, 0.0]]})
        data = Dataset(("C", "V"), (("0", "1"), ("0", "1")), np.array([[0, 0], [1, 1]]))
        with pytest.raises(ZeroProbability, match=r"tuple 1 has zero probability \(variable 'V'\)"):
            ll_decomposition(net, data, "C")

    @pytest.mark.parametrize("n, c", [(600, 0), (250, 1)],
                             ids=["every-value-underflows", "the-class-value-underflows"])
    def test_a_blanket_product_that_underflows_is_zero_probability(self, n, c):
        # every entry is positive, so log B(d) is finite; B(C | A1..An) is not
        from querybn.experiments import ex42_truth

        net = ex42_truth(n)
        codes = np.zeros((1, n + 1), dtype=np.int64)
        codes[0, 0] = c
        data = Dataset(net.names, tuple(v.domain for v in net.variables), codes)
        assert math.isfinite(nll(net, data))
        with pytest.raises(ZeroProbability, match=r"B\(C \| rest\) of tuple 0 underflows to zero"):
            ll_decomposition(net, data, "C")

    def test_empty_data_is_refused(self):
        with pytest.raises(ValueError, match="ll_decomposition needs a non-empty dataset"):
            ll_decomposition(naive_bayes_net(), forward_sample(naive_bayes_net(), 0), "C")


class TestDatasetBinding:
    """``ofe``, ``nll`` and ``ll_decomposition`` read a dataset by name and domain."""

    def test_a_domain_in_another_order_is_refused(self):
        net = make_net([("A", "01")], [], {"A": [[0.5, 0.5]]})
        # nine tuples of A="1", coded 0 against the flipped domain
        data = Dataset(("A",), (("1", "0"),), np.array([[0]] * 9 + [[1]]))
        for score in (lambda: ofe(net, data), lambda: nll(net, data),
                      lambda: ll_decomposition(net, data, "A")):
            with pytest.raises(ValueError, match="dataset domain of 'A' does not match the net"):
                score()

    def test_shuffled_columns_give_the_same_bits(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            net = random_net(rng, n_vars=int(rng.integers(2, 7)), arities=(2, 3, 4),
                             max_parents=2)
            data = forward_sample(net, 200, seed=rng)
            shuffled = _shuffled(rng, data)
            for alpha in (0.0, 1.0):
                a, b = ofe(net, data, alpha), ofe(net, shuffled, alpha)
                assert all(a.cpts[v].table.tobytes() == b.cpts[v].table.tobytes()
                           for v in net.names)
            assert nll(net, data) == nll(net, shuffled)
            class_var = str(rng.choice(net.names))
            assert ll_decomposition(net, data, class_var) == ll_decomposition(net, shuffled,
                                                                               class_var)


class TestReportOutput:
    def test_aggregate_matches_row_sum(self):
        truth, dist = ex41_truth(), ex41_distribution()
        report = true_err(ex41_bp(), dist, truth)
        total = sum(r.weight * r.sq_error for r in report.rows)
        assert report.aggregate == pytest.approx(total, abs=1e-12)

    def test_json_and_csv_writers(self, tmp_path):
        import csv
        import json

        report = true_err(ex41_bp(), ex41_distribution(), ex41_truth())
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        report.write_json(jpath)
        report.write_csv(cpath)
        doc = json.loads(jpath.read_text())
        assert doc["aggregate"] == pytest.approx(0.25)
        rows = list(csv.reader(cpath.read_text().splitlines()))
        assert rows[0] == ["query", "weight", "hypothesis", "reference", "sq_error", "note"]
        assert rows[-1][0] == "aggregate"
        assert float(rows[-1][4]) == pytest.approx(0.25)
