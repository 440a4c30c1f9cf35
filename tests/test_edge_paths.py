"""Cross-cutting edge paths: ratio semantics off the simplex, family
posteriors, n-ary fitting, batch boundaries, output format selection."""

import json

import numpy as np
import pytest

from querybn import FitOptions, LabeledQuery, StatQuery, fit_cpt, label_queries
from querybn.cli import main
from querybn.experiments import ex41_truth
from querybn.inference import cond_prob, enumerate_marginal, family_posterior, marginal
from querybn.network import BayesNet, Dag, Variable
from querybn.random_nets import random_net, random_query
from querybn.sampling import collect_until_matched, save_dataset

from helpers import make_net


class TestUnnormalizedTables:
    """cond_prob is the explicit ratio B(x, y) / B(y); with rows that do not
    sum to one both sides must still agree with enumeration, because the
    gradient checks differentiate exactly this rational function."""

    def test_ratio_matches_enumeration_off_the_simplex(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            net = random_net(rng, n_vars=5, arities=(2, 3))
            # knock one row off the simplex on purpose
            v = str(rng.choice(net.names))
            t = np.array(net.cpts[v].table)
            t[0] = t[0] * 1.7 + 0.05
            bent = net.with_tables({v: t})
            q = random_query(rng, bent, max_target=1, max_evidence=2)
            num = enumerate_marginal(bent, {**q.target, **q.evidence})
            den = enumerate_marginal(bent, q.evidence)
            assert cond_prob(bent, q.target, q.evidence) == pytest.approx(
                num / den, abs=1e-12)

    def test_total_mass_reflects_the_bend(self):
        net = make_net([("A", "01")], [], {"A": [[0.5, 0.5]]})
        bent = net.with_tables({"A": [[0.5, 0.7]]})
        assert marginal(bent, {}) == pytest.approx(1.2, abs=1e-12)


class TestFamilyPosterior:
    @staticmethod
    def assert_matches_enumeration(net, v, evidence):
        table = family_posterior(net, v, evidence)
        assert table.shape == net.cpts[v].table.shape
        p_e = enumerate_marginal(net, evidence)
        for row in range(table.shape[0]):
            for k in range(table.shape[1]):
                event = dict(net.decode_row(v, row))
                event[v] = net.label(v, k)
                if any(event.get(f) != evidence[f] for f in event if f in evidence):
                    expected = 0.0
                else:
                    expected = enumerate_marginal(net, {**evidence, **event}) / p_e
                assert table[row, k] == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_ratios(self):
        rng = np.random.default_rng(71)
        for _ in range(8):
            net = random_net(rng, n_vars=5, arities=(2, 3), max_parents=2)
            q = random_query(rng, net, max_target=0 or 1, max_evidence=2)
            self.assert_matches_enumeration(net, str(rng.choice(net.names)), q.evidence)

    def test_parent_order_differs_from_variable_order(self):
        # C's declared parents are (B, A) while the net orders A before B;
        # random_dag always sorts parents, so only a hand-built net has this
        rng = np.random.default_rng(72)
        variables = [("A", "01"), ("B", "xyz"), ("C", "01"), ("D", "01")]
        edges = [("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")]
        shapes = {"A": (1, 2), "B": (2, 3), "C": (6, 2), "D": (2, 2)}
        net = make_net(variables, edges,
                       {v: rng.dirichlet(np.ones(s[1]), size=s[0]) for v, s in shapes.items()})
        assert net.parents("C") == ("B", "A")
        for evidence in ({}, {"A": "1"}, {"B": "z"}, {"A": "0", "D": "1"}):
            self.assert_matches_enumeration(net, "C", evidence)


class TestTernaryFitting:
    def test_fit_recovers_reachable_labels(self):
        variables = [Variable("S", ("lo", "mid", "hi")), Variable("T", ("0", "1"))]
        dag = Dag.from_edges(["S", "T"], [("S", "T")])
        structure = BayesNet.uniform(variables, dag)
        truth = structure.with_tables({
            "S": [[0.2, 0.5, 0.3]],
            "T": [[0.9, 0.1], [0.4, 0.6], [0.15, 0.85]],
        })
        qs = [StatQuery({"T": "1"}, {"S": "lo"}),
              StatQuery({"T": "1"}, {"S": "mid"}),
              StatQuery({"T": "1"}, {"S": "hi"}),
              StatQuery({"S": "hi"}),
              StatQuery({"S": "lo"})]
        lqs = label_queries(truth, qs)
        fit = fit_cpt(structure, lqs, FitOptions(restarts=4, max_iters=600, seed=8))
        assert fit.err < 1e-6
        assert fit.net.cpts["S"].table.shape == (1, 3)


class TestCollectAcrossBatches:
    def test_exact_count_beyond_one_batch(self):
        # empty evidence forces the quota to land mid-batch after several
        # 65536-tuple draws
        data = collect_until_matched(ex41_truth(), [{}], per_evidence=150_000, seed=9)
        assert len(data) == 150_000


class TestCliFormatSelection:
    def test_json_only_and_csv_only(self, tmp_path):
        from querybn import save_net
        from querybn.queries import save_queries

        npath = tmp_path / "net.json"
        save_net(ex41_truth(), npath)
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(StatQuery({"C": "1"}, {"A": "1"}), 1.0, 1.0)])
        out_json = tmp_path / "oj"
        assert main(["eval", "--net", str(npath), "--queries", str(qpath),
                     "--out", str(out_json), "--format", "json"]) == 0
        assert (out_json / "report.json").exists()
        assert not (out_json / "report.csv").exists()
        out_csv = tmp_path / "oc"
        assert main(["eval", "--net", str(npath), "--queries", str(qpath),
                     "--out", str(out_csv), "--format", "csv"]) == 0
        assert (out_csv / "report.csv").exists()
        assert not (out_csv / "report.json").exists()


class TestLoaderEdges:
    def test_query_file_with_unknown_variable_fails_cleanly(self, tmp_path):
        from querybn.queries import load_queries

        path = tmp_path / "q.json"
        path.write_text(json.dumps({"atoms": [
            {"target": {"Z": "1"}, "evidence": {}, "weight": 1.0}]}))
        with pytest.raises(KeyError, match="unknown variable"):
            load_queries(path, ex41_truth())

    def test_dataset_with_reordered_columns_loads(self, tmp_path):
        from querybn.sampling import forward_sample, load_dataset

        net = ex41_truth()
        data = forward_sample(net, 50, seed=10)
        path = tmp_path / "d.csv"
        lines = ["C,A,X"]
        for i in range(len(data)):
            row = data.labels(i)
            lines.append(f"{row['C']},{row['A']},{row['X']}")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(path, net)
        assert loaded.variables == ("C", "A", "X")
        assert len(loaded) == 50
