"""Parameter fitting: frequency estimates, analytic gradients, descent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybn import (EntryId, FitOptions, LabeledQuery, QueryDistribution, StatQuery,
                     ZeroEvidence, db_dentry, derr_dentry, derr_dentry_mb, fit_cpt,
                     fit_cpt_from_events, flatten_grad, grad, ofe, true_err, validate)
from querybn.experiments import (ex41_bp, ex41_labeled_queries, ex41_structure,
                                 ex41_truth)
from querybn.inference import _compile, answer, cond_prob, is_markov_blanket_query
from querybn.learning import (FIRST_STEP, LINE_BATCH, MAX_HALVINGS, _can_affect,
                              _chain_to_scores, _db_table, _layout, _materialize,
                              _softmax_rows, _stack, _unstack)
from querybn.network import clamp_net, d_separated
from querybn.queries import label_queries
from querybn.random_nets import random_blanket_query, random_net, random_query
from querybn.sampling import Dataset, cond_freq, forward_sample

from helpers import grad_oracle, make_net, rel_err


class TestOfe:
    def test_direct_frequency(self):
        structure = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                             {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2})
        rows = [["1", "1"]] * 3 + [["1", "0"]]
        data = Dataset.from_labels(("A", "B"), (("0", "1"), ("0", "1")), rows)
        net = ofe(structure, data, alpha=0.0)
        assert net.cpts["B"].table[1, 1] == pytest.approx(0.75, abs=1e-12)
        assert net.cpts["A"].table[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_laplace_on_unseen_parent_config(self):
        structure = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                             {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2})
        data = Dataset.from_labels(("A", "B"), (("0", "1"), ("0", "1")), [["1", "1"]])
        net = ofe(structure, data, alpha=1.0)
        # A=0 never observed: row is (0+1)/(0+2) each
        assert np.allclose(net.cpts["B"].table[0], [0.5, 0.5])

    def test_unseen_config_without_smoothing_is_uniform(self):
        structure = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                             {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2})
        data = Dataset.from_labels(("A", "B"), (("0", "1"), ("0", "1")), [["1", "1"]])
        net = ofe(structure, data, alpha=0.0)
        assert np.allclose(net.cpts["B"].table[0], [0.5, 0.5])

    def test_same_structure_convergence(self):
        # sampled from a truth with the same structure, the fitted net's
        # query-weighted error vanishes as the sample grows
        rng = np.random.default_rng(50)
        truth = random_net(rng, n_vars=5, max_parents=2)
        dist = QueryDistribution.uniform(
            [random_query(rng, truth, max_target=1, max_evidence=2) for _ in range(6)])
        errs = []
        for n in (100, 1000, 10_000, 100_000):
            data = forward_sample(truth, n, seed=51)
            errs.append(true_err(ofe(truth, data, alpha=0.0), dist, truth).aggregate)
        assert errs[-1] < 0.01
        assert all(b <= a + 0.01 for a, b in zip(errs, errs[1:]))

    def test_negative_smoothing_rejected(self):
        data = forward_sample(ex41_truth(), 10, seed=0)
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="smoothing"):
                ofe(ex41_structure(), data, alpha=alpha)


class TestDbDentry:
    def test_hand_value_at_uniform(self):
        # entry e[C=1|X=1], query P(C=1|A=1) at the all-0.5 chain net:
        # (1/0.5) * 0.5 * (0.5 - 0.25) = 0.25
        bp = ex41_bp()
        e = EntryId("C", bp.row_index("C", {"X": "1"}), bp.code("C", "1"))
        assert db_dentry(bp, StatQuery({"C": "1"}, {"A": "1"}), e) == pytest.approx(0.25, abs=1e-12)

    def test_matches_exact_difference_oracle(self):
        from helpers import db_oracle

        rng = np.random.default_rng(52)
        for _ in range(25):
            net = random_net(rng, n_vars=int(rng.integers(3, 7)), arities=(2, 3), interior=0.15)
            q = random_query(rng, net, max_target=2, max_evidence=2, min_evidence_prob=0.02)
            for eid in net.entry_ids():
                fd, _ = db_oracle(net, q, eid)
                assert rel_err(db_dentry(net, q, eid), fd) < 1e-5

    def test_d_separated_entry_is_exact_zero_without_inference(self, monkeypatch):
        import querybn.learning as learning

        calls = {"n": 0}

        def counting(real):
            def wrapper(*args, **kwargs):
                calls["n"] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("cond_prob", "family_posterior", "mb_posterior"):
            monkeypatch.setattr(learning, name, counting(getattr(learning, name)))
        bp = ex41_bp()
        # evidence A fixes the whole family of A's prior entry
        e = EntryId("A", 0, 1)
        assert db_dentry(bp, StatQuery({"C": "1"}, {"A": "1"}), e) == 0.0
        assert calls["n"] == 0

    def test_zero_entry_raises(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.5, 0.5]], "B": [[1.0, 0.0], [0.3, 0.7]]})
        e = EntryId("B", 0, 1)
        with pytest.raises(ValueError, match="zero"):
            db_dentry(net, StatQuery({"B": "1"}), e)


class TestDerrDentry:
    def test_hand_value_composition(self):
        bp = ex41_bp()
        e = EntryId("C", bp.row_index("C", {"X": "1"}), bp.code("C", "1"))
        lq = LabeledQuery(StatQuery({"C": "1"}, {"A": "1"}), 1.0)
        # 2 * (0.5 - 1) * 0.25
        assert derr_dentry(bp, lq, e) == pytest.approx(-0.25, abs=1e-12)

    def test_correct_prediction_gives_exact_zero(self):
        net = ex41_bp()
        q = StatQuery({"C": "1"}, {"A": "1"})
        lq = LabeledQuery(q, answer(net, q))
        for eid in net.entry_ids():
            assert derr_dentry(net, lq, eid) == 0.0

    def test_blanket_query_does_not_use_the_blanket_path(self, monkeypatch):
        # derr_dentry is the independent general form that criterion 4
        # compares derr_dentry_mb against; it must not reach mb_posterior
        import querybn.learning as learning

        def refuse(*args, **kwargs):
            raise AssertionError("derr_dentry took the blanket path")

        rng = np.random.default_rng(57)
        net = random_net(rng, n_vars=5, interior=0.15)
        lq = LabeledQuery(random_blanket_query(rng, net), 0.3)
        expected = {eid: derr_dentry(net, lq, eid) for eid in net.entry_ids()}
        monkeypatch.setattr(learning, "mb_posterior", refuse)
        assert {eid: derr_dentry(net, lq, eid) for eid in net.entry_ids()} == expected
        assert any(v != 0.0 for v in expected.values())


class TestDerrDentryMb:
    def test_an_entry_it_would_divide_by_must_be_positive(self):
        # a zero entry consistent with the query makes B 0 and the derivative 0,
        # so only an entry off the simplex, below zero, reaches the check
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.5, 0.5]], "B": [[-0.1, 1.1], [0.3, 0.7]]})
        lq = LabeledQuery(StatQuery({"A": "0"}, {"B": "0"}), 0.5)
        with pytest.raises(ValueError, match=r"entry e\[B=0\|A=0\] is zero; gradient undefined"):
            derr_dentry_mb(net, lq, EntryId("B", 0, 0))
        zero = net.with_tables({"B": [[0.0, 1.0], [0.3, 0.7]]})
        assert derr_dentry_mb(zero, lq, EntryId("B", 0, 0)) == 0.0

    def _consistent_entries(self, net, q):
        assignment = {**q.target, **q.evidence}
        for eid in net.entry_ids():
            fam = (eid.var, *net.parents(eid.var))
            if any(f not in assignment for f in fam):
                continue
            event = dict(net.decode_row(eid.var, eid.row))
            event[eid.var] = net.label(eid.var, eid.value)
            if all(assignment[f] == lab for f, lab in event.items()):
                yield eid

    def test_zero_residual(self):
        rng = np.random.default_rng(53)
        net = random_net(rng, n_vars=5)
        q = random_blanket_query(rng, net)
        lq = LabeledQuery(q, answer(net, q))
        for eid in self._consistent_entries(net, q):
            assert derr_dentry_mb(net, lq, eid) == 0.0

    def test_saturated_prediction_gives_zero(self):
        net = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                       {"A": [[0.5, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]]})
        q = StatQuery({"B": "1"}, {"A": "1"})  # B(q) = 1 exactly
        lq = LabeledQuery(q, 0.25)
        e = EntryId("B", 1, 1)
        assert derr_dentry_mb(net, lq, e) == 0.0

    def test_inconsistent_entry_returns_zero_by_convention(self):
        rng = np.random.default_rng(54)
        net = random_net(rng, n_vars=5)
        q = random_blanket_query(rng, net)
        lq = LabeledQuery(q, 0.3)
        (v, val), = q.target.items()
        other = next(lab for lab in net.domain(v) if lab != val)
        row = net.row_index(v, q.evidence)
        e = EntryId(v, row, net.code(v, other))
        assert derr_dentry_mb(net, lq, e) == 0.0

    def test_matches_general_form_on_consistent_entries(self):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(40):
            net = random_net(rng, n_vars=int(rng.integers(3, 8)), arities=(2, 3), interior=0.12)
            q = random_blanket_query(rng, net)
            lq = LabeledQuery(q, float(rng.random()))
            for eid in self._consistent_entries(net, q):
                assert abs(derr_dentry_mb(net, lq, eid) - derr_dentry(net, lq, eid)) < 1e-10
                checked += 1
        assert checked >= 80

    def test_never_reaches_the_batched_engine(self, monkeypatch):
        # the closed form is its own implementation, independent of grad
        import querybn.inference as inference
        import querybn.learning as learning

        def refuse(*args, **kwargs):
            raise AssertionError("derr_dentry_mb replayed or swept a plan")

        rng = np.random.default_rng(58)
        net = random_net(rng, n_vars=6, arities=(2, 3), interior=0.12)
        lq = LabeledQuery(random_blanket_query(rng, net), 0.3)
        for module in (inference, learning):
            for name in ("_replay", "_reverse"):
                monkeypatch.setattr(module, name, refuse)
        values = [derr_dentry_mb(net, lq, eid) for eid in self._consistent_entries(net, lq.query)]
        assert any(v != 0.0 for v in values)

    def test_non_blanket_query_rejected(self):
        net = ex41_bp()
        lq = LabeledQuery(StatQuery({"C": "1"}, {"A": "1"}), 1.0)
        with pytest.raises(ValueError, match="Markov-blanket"):
            derr_dentry_mb(net, lq, EntryId("C", 0, 0))


class TestGrad:
    def test_uniform_start_of_ex41_is_a_stall_point(self):
        bp = ex41_bp()
        g = flatten_grad(bp, grad(bp, ex41_labeled_queries()))
        assert all(v == 0.0 for v in g.values())
        # confirmed by the exact difference oracle
        for eid in bp.entry_ids():
            assert abs(grad_oracle(bp, ex41_labeled_queries(), eid)) < 1e-12

    def test_single_query_matches_derr_dentry(self):
        rng = np.random.default_rng(56)
        net = random_net(rng, n_vars=5, interior=0.15)
        q = random_query(rng, net, max_target=1, max_evidence=2)
        lq = LabeledQuery(q, 0.42)
        g = flatten_grad(net, grad(net, [lq], weights=[1.0]))
        for eid in net.entry_ids():
            assert g[eid] == pytest.approx(derr_dentry(net, lq, eid), abs=1e-12)

    def test_matches_exact_difference_oracle_on_random_pairs(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            net = random_net(rng, n_vars=int(rng.integers(3, 9)), arities=(2, 3),
                             max_parents=2, interior=0.15)
            qs = [random_query(rng, net, max_target=1, max_evidence=2, min_evidence_prob=0.02)
                  for _ in range(int(rng.integers(1, 4)))]
            lqs = [LabeledQuery(q, float(rng.random())) for q in qs]
            g = flatten_grad(net, grad(net, lqs))
            for eid in net.entry_ids():
                assert rel_err(g[eid], grad_oracle(net, lqs, eid)) < 1e-5

    def test_answer_labels_give_exact_zeros_on_general_queries(self):
        # grad's general B comes from a kept-target replay, which may differ
        # from answer's by rounding; a label equal to the answer still gives
        # an exact zero gradient
        rng = np.random.default_rng(65)
        for _ in range(40):
            net = random_net(rng, n_vars=int(rng.integers(3, 9)), arities=(2, 3), interior=0.1)
            lqs = label_queries(net, [lq.query for lq in _general_queries(rng, net, 3)])
            assert not any(t.any() for t in grad(net, lqs).values())

    def test_general_query_errors(self):
        # A=1 has probability zero; B's zero entry lies in a family that
        # P(C=1 | A=0) depends on
        net = make_net([("A", "01"), ("B", "01"), ("C", "01")], [("A", "B"), ("B", "C")],
                       {"A": [[1.0, 0.0]], "B": [[1.0, 0.0], [0.5, 0.5]],
                        "C": [[0.3, 0.7], [0.6, 0.4]]})
        with pytest.raises(ZeroEvidence):
            grad(net, [LabeledQuery(StatQuery({"C": "1"}, {"A": "1"}), 0.5)])
        q = StatQuery({"C": "1"}, {"A": "0"})
        with pytest.raises(ValueError, match="is zero"):
            grad(net, [LabeledQuery(q, 0.0)])
        # a residual of zero needs no derivative, so the zero entry is fine
        assert not any(t.any() for t in grad(net, label_queries(net, [q])).values())

    def test_empty_query_list_rejected(self):
        with pytest.raises(ValueError, match="at least one labeled query"):
            grad(ex41_bp(), [])

    def test_zero_evidence_blanket_query_raises(self):
        # C is never 1, so the evidence A=1, C=1 is impossible, although B's
        # blanket {A} alone does not show it
        net = make_net([("A", "01"), ("B", "01"), ("C", "01")], [("A", "B")],
                       {"A": [[0.4, 0.6]], "B": [[0.7, 0.3], [0.2, 0.8]], "C": [[1.0, 0.0]]})
        q = StatQuery({"B": "1"}, {"A": "1", "C": "1"})
        assert is_markov_blanket_query(net, q)
        with pytest.raises(ZeroEvidence):
            answer(net, q)
        with pytest.raises(ZeroEvidence):
            grad(net, [LabeledQuery(q, 0.5)])

    def test_a_label_within_tie_rtol_of_the_answer_counts_as_met(self):
        rng = np.random.default_rng(66)
        net = random_net(rng, n_vars=6, arities=(2, 3), interior=0.1)
        general = _general_queries(rng, net, 1)[0].query
        blanket = random_blanket_query(rng, net)
        for q in (general, blanket):
            B = answer(net, q)
            assert 0.0 < B < 0.99
            met = grad(net, [LabeledQuery(q, B * (1 + 5e-13))])
            assert not any(t.any() for t in met.values())
            off = grad(net, [LabeledQuery(q, B * (1 + 1e-9))])
            assert any(t.any() for t in off.values())

    def test_zero_evidence_names_the_query_that_has_it(self):
        # both queries share one batched replay; only the second's evidence
        # has probability zero
        net = make_net([("A", "01"), ("B", "01"), ("C", "01")], [("A", "B"), ("B", "C")],
                       {"A": [[1.0, 0.0]], "B": [[0.7, 0.3], [0.5, 0.5]],
                        "C": [[0.3, 0.7], [0.6, 0.4]]})
        lqs = [LabeledQuery(StatQuery({"C": "1"}, {"A": "0"}), 0.5),
               LabeledQuery(StatQuery({"B": "1"}, {"A": "1"}), 0.5)]
        assert not any(is_markov_blanket_query(net, lq.query) for lq in lqs)
        with pytest.raises(ZeroEvidence) as exc:
            grad(net, lqs)
        assert exc.value.evidence == {"A": "1"}

    def test_chained_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        eps = 1e-6
        for _ in range(5):
            structure = random_net(rng, n_vars=4, interior=0.2)
            qs = [random_query(rng, structure, max_target=1, max_evidence=2)
                  for _ in range(3)]
            lqs = [LabeledQuery(q, float(rng.random())) for q in qs]
            layout = _layout(structure)
            scores = _stack(layout, {v: rng.normal(0, 0.8, structure.cpts[v].table.shape)
                                     for v in structure.names})
            net = structure.with_tables(_unstack(layout, _materialize(scores, eps)[1]))
            sm = {m: _softmax_rows(s) for m, s in scores.items()}
            analytic = _unstack(layout, _chain_to_scores(sm, _stack(layout, grad(net, lqs)), eps))

            def err_at(sc):
                from querybn.scoring import empirical_err

                tables = _unstack(layout, _materialize(sc, eps)[1])
                return empirical_err(structure.with_tables(tables), lqs).aggregate

            h = 1e-5
            for v in structure.names:
                rows, arity = analytic[v].shape
                for r in range(rows):
                    for k in range(arity):
                        up = {m: s.copy() for m, s in scores.items()}
                        dn = {m: s.copy() for m, s in scores.items()}
                        _unstack(layout, up)[v][r, k] += h
                        _unstack(layout, dn)[v][r, k] -= h
                        fd = (err_at(up) - err_at(dn)) / (2 * h)
                        assert rel_err(analytic[v][r, k], fd, floor=1e-7) < 1e-4


def _family_can_affect(b, v, q):
    """The reference rule, one d-separation test per family: False only when
    ``v``'s family is fully fixed by the evidence or d-separated from the target."""
    fam = {v, *b.parents(v)}
    if fam & q.target.keys():
        return True
    free = fam - q.evidence.keys()
    return bool(free) and not d_separated(b, free, set(q.target), set(q.evidence))


class TestCanAffect:
    def test_one_pass_matches_one_d_separation_test_per_family(self):
        rng = np.random.default_rng(71)
        for _ in range(400):
            net = random_net(rng, n_vars=int(rng.integers(2, 16)), arities=(2, 3),
                             max_parents=int(rng.integers(1, 4)))
            names = list(rng.permutation(net.names))
            n_target = int(rng.integers(1, min(3, len(names)) + 1))
            n_evidence = int(rng.integers(0, min(5, len(names) - n_target) + 1))
            q = StatQuery({v: "0" for v in names[:n_target]},
                          {v: "0" for v in names[n_target:n_target + n_evidence]})
            assert _can_affect(net, q) == {v: _family_can_affect(net, v, q) for v in net.names}


def _general_queries(rng, net, n):
    qs = []
    while len(qs) < n:
        q = random_query(rng, net, max_target=2, max_evidence=3)
        if not is_markov_blanket_query(net, q):
            qs.append(LabeledQuery(q, float(rng.random())))
    return qs


def _blanket_queries(rng, net, n):
    return [LabeledQuery(random_blanket_query(rng, net), float(rng.random())) for _ in range(n)]


class TestGradGeneralPath:
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_summed_family_posteriors(self, seed):
        # the batched gradient against the family-posterior form, one query
        # at a time and for the whole set in one batch; blanket queries ride
        # the same batch as general ones
        rng = np.random.default_rng(seed)
        net = random_net(rng, n_vars=int(rng.integers(2, 9)), arities=(2, 3),
                         max_parents=int(rng.integers(1, 4)), interior=1e-9)
        net = clamp_net(net, float(rng.choice([1e-6, 1e-3, 0.05])))
        lqs = _general_queries(rng, net, 3) + _blanket_queries(rng, net, 2)
        ws = [float(rng.uniform(0.1, 2.0)) for _ in lqs]
        summed = {v: np.zeros_like(net.cpts[v].table) for v in net.names}
        scale = {v: np.zeros_like(net.cpts[v].table) for v in net.names}
        for lq, w in zip(lqs, ws):
            new = grad(net, [lq], weights=[w])
            q = lq.query
            B = cond_prob(net, q.target, q.evidence)
            for v in net.names:
                if not _family_can_affect(net, v, q):
                    assert not new[v].any()
                    continue
                old = _db_table(net, v, q, 2.0 * w * (B - lq.label) * B)
                assert (np.abs(new[v] - old) <= 1e-12 * np.maximum(1.0, np.abs(old))).all()
                summed[v] += old
                scale[v] += np.abs(old)
        batch = grad(net, lqs, weights=ws)
        for v in net.names:
            if not any(_family_can_affect(net, v, lq.query) for lq in lqs):
                assert not batch[v].any()
            assert (np.abs(batch[v] - summed[v]) <= 1e-12 * np.maximum(1.0, scale[v])).all()


class TestGradWorkCount:
    """Deterministic counts of the inference one gradient makes."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        import querybn.inference as inference
        import querybn.learning as learning

        calls = {"_replay": 0, "_reverse": 0}

        def counting(name):
            real = getattr(learning, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("grad must not call cond_prob, family_posterior, "
                                 "mb_posterior or answer")

        for name in calls:
            monkeypatch.setattr(learning, name, counting(name))
        for module in (inference, learning):
            for name in ("cond_prob", "family_posterior", "mb_posterior", "answer"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        return calls

    def test_one_replay_and_one_sweep_per_gradient(self, passes):
        # the whole query set is one batch, whatever its size
        rng = np.random.default_rng(60)
        net = random_net(rng, n_vars=8, arities=(2, 3), max_parents=3)
        for n in (1, 6):
            grad(net, _general_queries(rng, net, n))
            assert passes == {"_replay": 1, "_reverse": 1}
            passes.update(_replay=0, _reverse=0)

    def test_a_mixed_set_costs_one_replay_and_one_sweep(self, passes):
        # blanket queries take two batch rows like any other query, and
        # never mb_posterior or cond_prob
        rng = np.random.default_rng(61)
        net = random_net(rng, n_vars=6, arities=(2, 3))
        lqs = _blanket_queries(rng, net, 3) + _general_queries(rng, net, 2)
        lqs = [lqs[i] for i in rng.permutation(len(lqs))]
        g = grad(net, lqs)
        assert passes == {"_replay": 1, "_reverse": 1} and any(t.any() for t in g.values())

    def test_a_fit_replays_once_per_round_and_sweeps_per_iteration(self, passes, monkeypatch):
        # each restart's start is one batched replay of the whole query set,
        # and so is each line-search round of at most LINE_BATCH candidate
        # steps; each gradient reuses the accepted candidate's registers and
        # only sweeps
        import querybn.learning as learning

        sizes = []
        real = learning._materialize

        def counting(scores, eps):
            sizes.append(len(next(iter(scores.values()))))
            return real(scores, eps)

        monkeypatch.setattr(learning, "_materialize", counting)
        rng = np.random.default_rng(63)
        structure = random_net(rng, n_vars=8, arities=(2, 3), max_parents=3)
        for n in (1, 6):
            sizes.clear()
            passes.update(_replay=0, _reverse=0)
            lqs = _general_queries(rng, structure, n)
            opts = FitOptions(restarts=2, max_iters=15, seed=0)
            fit = fit_cpt(structure, lqs, opts)
            assert sizes == _round_sizes(fit, opts) and max(sizes) == LINE_BATCH
            assert passes == {"_replay": len(sizes), "_reverse": len(fit.trace)}

    def test_a_fit_runs_softmax_once_per_replay_never_per_gradient(self, passes, monkeypatch):
        # a gradient chains through the softmax rows its candidate's round
        # already computed, so the softmax runs once per arity stack for
        # each restart start and each line-search round, the fit's replays
        import querybn.learning as learning

        calls = {"n": 0}
        real = learning._softmax_rows

        def counting(scores):
            calls["n"] += 1
            return real(scores)

        monkeypatch.setattr(learning, "_softmax_rows", counting)
        rng = np.random.default_rng(67)
        structure = random_net(rng, n_vars=8, arities=(2, 3), max_parents=3)
        stacks = len({structure.arity(v) for v in structure.names})
        lqs = _general_queries(rng, structure, 4) + _blanket_queries(rng, structure, 2)
        fit = fit_cpt(structure, lqs, FitOptions(restarts=2, max_iters=15, seed=0))
        assert stacks == 2 and passes["_reverse"] == len(fit.trace) > 0
        assert calls["n"] == stacks * passes["_replay"]

    def test_a_fit_builds_a_net_only_for_on_step_and_its_result(self, passes, monkeypatch):
        # trials are tables: with_tables runs once per on_step call and once
        # for the returned net, and a mixed set is fitted without answer,
        # cond_prob or mb_posterior
        from querybn.network import BayesNet

        built = {"n": 0}
        real = BayesNet.with_tables

        def counting(self, tables):
            built["n"] += 1
            return real(self, tables)

        monkeypatch.setattr(BayesNet, "with_tables", counting)
        rng = np.random.default_rng(64)
        structure = random_net(rng, n_vars=7, arities=(2, 3), max_parents=3)
        lqs = _general_queries(rng, structure, 3) + _blanket_queries(rng, structure, 3)
        opts = FitOptions(restarts=2, max_iters=15, seed=0)
        built["n"] = 0
        fit_cpt(structure, lqs, opts)
        assert built["n"] == 1
        built["n"] = 0
        fit = fit_cpt(structure, lqs, opts, on_step=lambda net, it, err: None)
        accepted = sum(r.accepted for r in fit.trace)
        assert accepted > 0 and built["n"] <= accepted + 1

    def test_a_fit_compiles_each_distinct_plan_once(self):
        # one evidence-free plan serves every query of the set
        rng = np.random.default_rng(62)
        structure = random_net(rng, n_vars=8, arities=(2, 3), max_parents=3)
        lqs = _general_queries(rng, structure, 6)
        _compile.cache_clear()
        fit_cpt(structure, lqs, FitOptions(restarts=2, max_iters=15, seed=0))
        info = _compile.cache_info()
        assert info.misses == info.currsize == 1

    def test_a_program_tests_each_role_once_for_what_it_can_affect(self, monkeypatch):
        # ex4.2's pattern p(C | A1..A10) grounds to 2,048 queries of one role
        # (target variables, evidence variables): one Bayes-ball pass for all
        import querybn.learning as learning
        from querybn.experiments import ex42_truth
        from querybn.queries import QueryPattern, expand_pattern

        net = clamp_net(ex42_truth(10), 1e-3)
        pattern = QueryPattern(("C",), tuple(f"A{i}" for i in range(1, 11)))
        lqs = [LabeledQuery(q, 0.5) for q, _ in expand_pattern(net, pattern, 1.0)]
        calls = {"n": 0}
        real = learning._bayes_ball

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(learning, "_bayes_ball", counting)
        prog = learning._program(net, lqs)
        assert len(lqs) == 2048 and calls["n"] == 1
        assert prog.affected.shape == (2048, 11) and prog.affected.all()


def _sequential_fit(structure, qs, opts, on_step=None):
    """:func:`fit_cpt` as it ran before line-search rounds were batched: one
    replay per trial, the step halved after each failed trial, the softmax
    rows recomputed from the scores for each gradient and the norm summed
    per variable.  The reference the rounds must match bit for bit."""
    import querybn.learning as L

    rng = np.random.default_rng(opts.seed)
    prog = L._program(structure, qs)
    layout = prog.layout
    trace, best = [], None

    def trial(scores):
        _, tables = L._materialize({m: s[None] for m, s in scores.items()}, opts.eps_clamp)
        err, state = next(L._evaluate(prog, tables))
        return L._pick(tables, 0), err, state

    def net_of(tables):
        return structure.with_tables(_unstack(layout, tables))

    for restart in range(opts.restarts):
        scores = {m: np.clip(s, -L.SCORE_BOUND, L.SCORE_BOUND) for m, s in _stack(
            layout, L._initial_scores(structure, opts, restart, rng)).items()}
        tables, err, state = trial(scores)
        step = FIRST_STEP
        converged = False
        for it in range(1, opts.max_iters + 1):
            sm = {m: _softmax_rows(s) for m, s in scores.items()}
            g_scores = _chain_to_scores(sm, L._grad_from_state(prog, state), opts.eps_clamp)
            gnorm = float(np.sqrt(sum(float((t * t).sum())
                                      for t in _unstack(layout, g_scores).values())))
            if gnorm < opts.tol:
                trace.append(L.TraceRow(restart, it, err, gnorm, 0.0, False))
                converged = True
                break
            accepted = False
            t = step
            for _ in range(MAX_HALVINGS + 1):
                candidate = {m: np.clip(s - t * g_scores[m], -L.SCORE_BOUND, L.SCORE_BOUND)
                             for m, s in scores.items()}
                cand_tables, cand_err, cand_state = trial(candidate)
                if cand_err < err:
                    accepted = True
                    break
                t *= 0.5
            trace.append(L.TraceRow(restart, it, err, gnorm, t if accepted else 0.0, accepted))
            if not accepted:
                break
            scores, tables, err, state = candidate, cand_tables, cand_err, cand_state
            step = t * 2.0
            if on_step is not None:
                on_step(net_of(tables), it, err)
        if best is None or err < best[0]:
            best = (err, restart, tables, converged)
    err, restart, tables, converged = best
    return L.FitResult(net=net_of(tables), err=err, trace=trace, restart=restart,
                       converged=converged)


def _round_sizes(fit, opts):
    """The candidates each replay of a fit scores, worked out from its trace:
    1 for each restart's start, then, for an iteration whose line search
    made ``n`` trials, ``n`` split into rounds of at most ``LINE_BATCH``,
    the last round cut at ``MAX_HALVINGS + 1`` trials."""
    sizes, restart = [], None
    for row in fit.trace:
        if row.restart != restart:
            sizes.append(1)
            restart, step = row.restart, FIRST_STEP
        if row.grad_norm < opts.tol:
            continue
        trials = round(math.log2(step / row.step)) + 1 if row.accepted else MAX_HALVINGS + 1
        sizes += [min(LINE_BATCH, MAX_HALVINGS + 1 - lo) for lo in range(0, trials, LINE_BATCH)]
        step = row.step * 2.0
    return sizes


def _fit_bytes(fit):
    return ([(r.restart, r.iteration, r.err.hex(), r.grad_norm.hex(), r.step.hex(), r.accepted)
             for r in fit.trace],
            [fit.net.cpts[v].table.tobytes() for v in fit.net.names],
            fit.err.hex(), fit.restart, fit.converged)


class TestLineSearchRounds:
    def test_rounds_match_the_sequential_search_bit_for_bit(self):
        # results, trace and every on_step call, on mixed sets (49 of their
        # iterations accept in a second round), on a stall that fails all
        # MAX_HALVINGS + 1 trials and on fits cut by max_iters
        rng = np.random.default_rng(65)
        cases = []
        for i in range(12):
            structure = random_net(rng, n_vars=7, arities=(2, 3, 4), max_parents=3)
            lqs = _general_queries(rng, structure, 3) + _blanket_queries(rng, structure, 3)
            lqs = [lqs[k] for k in rng.permutation(len(lqs))]
            cases.append((structure, lqs, FitOptions(restarts=2, max_iters=80, seed=i)))
        cases.append((structure, lqs, FitOptions(restarts=2, max_iters=3, seed=0)))
        stall = FitOptions(init="uniform", restarts=1, max_iters=50, tol=0.0)
        cases.append((ex41_structure(), ex41_labeled_queries(), stall))
        for structure, lqs, opts in cases:
            calls = {"batched": [], "sequential": []}

            def recorder(key):
                return lambda net, it, err: calls[key].append(
                    (it, err.hex(), [net.cpts[v].table.tobytes() for v in net.names]))

            fit = fit_cpt(structure, lqs, opts, on_step=recorder("batched"))
            ref = _sequential_fit(structure, lqs, opts, on_step=recorder("sequential"))
            assert _fit_bytes(fit) == _fit_bytes(ref)
            assert calls["batched"] == calls["sequential"]
            if opts is stall:
                assert [(r.accepted, r.step) for r in fit.trace] == [(False, 0.0)]
                assert not fit.converged
            elif opts.max_iters == 3:
                assert [r.iteration for r in fit.trace] == [1, 2, 3] * 2
                assert all(r.accepted for r in fit.trace)


class TestFitCpt:
    def test_ex41_reaches_tolerance(self):
        fit = fit_cpt(ex41_structure(), ex41_labeled_queries(),
                      FitOptions(restarts=10, max_iters=2000, seed=0))
        assert fit.err < 1e-3

    def test_init_net_at_global_minimum_accepts_no_steps(self):
        rng = np.random.default_rng(60)
        truth = random_net(rng, n_vars=4, interior=0.1)
        qs = [random_query(rng, truth, max_target=1, max_evidence=1) for _ in range(4)]
        lqs = label_queries(truth, qs)
        fit = fit_cpt(truth, lqs, FitOptions(init=truth, restarts=1, max_iters=50, seed=1))
        assert not any(row.accepted for row in fit.trace)
        assert fit.err == pytest.approx(0.0, abs=1e-9)

    def test_uniform_init_on_ex41_is_a_converged_stall_point(self):
        fit = fit_cpt(ex41_structure(), ex41_labeled_queries(),
                      FitOptions(init="uniform", restarts=1, max_iters=50, seed=0))
        assert len(fit.trace) == 1
        assert fit.trace[0].err == 0.25
        assert fit.trace[0].grad_norm == 0.0
        assert fit.converged

    def test_init_net_from_ofe_starts_at_the_ofe_error(self):
        from querybn.scoring import empirical_err

        structure, lqs = ex41_structure(), ex41_labeled_queries()
        start = ofe(structure, forward_sample(ex41_truth(), 500, seed=11), alpha=1.0)
        fit = fit_cpt(structure, lqs, FitOptions(init=start, restarts=1, max_iters=5, seed=0))
        assert fit.trace[0].err == pytest.approx(empirical_err(start, lqs).aggregate, abs=1e-12)

    @pytest.mark.parametrize("start, var", [
        (ex41_truth(), "X"),
        (make_net([("A", "01"), ("X", "01"), ("C", "01")], [("A", "X"), ("C", "X")],
                  {"A": [[0.5, 0.5]], "C": [[0.5, 0.5]], "X": [[0.5, 0.5]] * 4}), "X"),
        (make_net([("A", "01"), ("X", "01")], [("A", "X")],
                  {"A": [[0.5, 0.5]], "X": [[0.5, 0.5]] * 2}), "C"),
    ], ids=["ex41-truth", "collider", "short-chain"])
    def test_start_net_of_another_structure_raises_before_compiling(self, monkeypatch, start,
                                                                     var):
        # ex4.1's truth drops A -> X, the collider points A and C into X, and
        # the chain A -> X stops short of C
        import querybn.learning as learning

        monkeypatch.setattr(learning, "_program", lambda *a: pytest.fail("compiled"))
        with pytest.raises(ValueError, match=f"differs from the structure at '{var}'"):
            fit_cpt(ex41_structure(), ex41_labeled_queries(), FitOptions(init=start))

    @pytest.mark.parametrize("fixture", ["ex41", "table1_chain", "mixed"])
    def test_reported_err_is_the_returned_nets_empirical_err(self, fixture):
        # the fitter scores with its own replays, not with empirical_err
        from querybn.experiments import ex41_distribution
        from querybn.scoring import empirical_err

        if fixture == "ex41":
            structure, lqs = ex41_structure(), ex41_labeled_queries()
        elif fixture == "table1_chain":
            # run_table1's given structure, labeled from 1000 sampled tuples
            data = forward_sample(ex41_truth(), 1000, seed=np.random.SeedSequence([0, 1]))
            structure = ex41_structure()
            lqs = [LabeledQuery(q, cond_freq(data, q.target, q.evidence))
                   for q, _ in ex41_distribution().atoms]
        else:
            rng = np.random.default_rng(64)
            structure = random_net(rng, n_vars=6, arities=(2, 3))
            lqs = _general_queries(rng, structure, 3)
            lqs += [LabeledQuery(random_blanket_query(rng, structure), float(rng.random()))
                    for _ in range(3)]
        fit = fit_cpt(structure, lqs, FitOptions(restarts=2, max_iters=200, seed=0))
        assert abs(fit.err - empirical_err(fit.net, lqs).aggregate) <= 1e-12

    def test_ofe_init_is_rejected(self):
        # so is "net": a start net is passed as the BayesNet itself
        for init in ("ofe", "net", "Dirichlet", None):
            with pytest.raises(ValueError, match="unknown init"):
                FitOptions(init=init)

    def test_accepted_err_sequence_is_monotone(self):
        fit = fit_cpt(ex41_structure(), ex41_labeled_queries(),
                      FitOptions(restarts=3, max_iters=300, seed=2))
        for restart in {row.restart for row in fit.trace}:
            errs = [row.err for row in fit.trace if row.restart == restart]
            assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_every_step_keeps_rows_normalized_and_clamped(self):
        opts = FitOptions(restarts=2, max_iters=150, seed=3, eps_clamp=1e-6)
        seen = {"n": 0}

        def check(net, iteration, err):
            seen["n"] += 1
            for v in net.names:
                t = net.cpts[v].table
                assert np.allclose(t.sum(axis=1), 1.0, atol=1e-9)
                assert t.min() >= opts.eps_clamp
                assert t.max() <= 1 - opts.eps_clamp
            assert not validate(net, eps_clamp=opts.eps_clamp)

        fit = fit_cpt(ex41_structure(), ex41_labeled_queries(), opts, on_step=check)
        assert seen["n"] > 0
        assert not validate(fit.net, eps_clamp=opts.eps_clamp)

    def test_beats_ofe_on_wrong_structure_labels(self):
        # labels generated by a net with the same structure; the fitter should
        # do at least as well as frequency estimation from 10^4 samples
        rng = np.random.default_rng(61)
        truth = random_net(rng, n_vars=5, max_parents=2, interior=0.1)
        qs = []
        while len(qs) < 5:
            q = random_query(rng, truth, max_target=1, max_evidence=2)
            if q not in qs:
                qs.append(q)
        lqs = label_queries(truth, qs)
        fit = fit_cpt(truth, lqs, FitOptions(restarts=4, max_iters=400, seed=4))
        data = forward_sample(truth, 10_000, seed=62)
        ofe_net = ofe(truth, data, alpha=0.0)
        from querybn.scoring import empirical_err

        assert fit.err <= empirical_err(ofe_net, lqs).aggregate + 1e-9

    def test_matches_grid_search_oracle_on_three_free_entries(self):
        # two-node structure: three free probabilities (A prior, B|A=0, B|A=1);
        # conflicting labels make the optimum interior and nonzero
        structure = make_net([("A", "01"), ("B", "01")], [("A", "B")],
                             {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2})
        lqs = [LabeledQuery(StatQuery({"B": "1"}, {"A": "1"}), 0.9),
               LabeledQuery(StatQuery({"B": "1"}, {"A": "0"}), 0.2),
               LabeledQuery(StatQuery({"A": "1"}), 0.7),
               LabeledQuery(StatQuery({"B": "1"}), 0.1)]

        # independent oracle: exhaustive grid over the closed-form answers
        pa = np.linspace(0.005, 0.995, 199)
        p1 = np.linspace(0.005, 0.995, 199)
        p0 = np.linspace(0.005, 0.995, 199)
        PA, P1, P0 = np.meshgrid(pa, p1, p0, indexing="ij")
        err_grid = ((P1 - 0.9) ** 2 + (P0 - 0.2) ** 2 + (PA - 0.7) ** 2
                    + (PA * P1 + (1 - PA) * P0 - 0.1) ** 2) / 4.0
        grid_min = float(err_grid.min())

        fit = fit_cpt(structure, lqs, FitOptions(restarts=6, max_iters=800, seed=5))
        assert fit.err <= grid_min + 1e-3
        assert fit.err >= grid_min - 1e-3  # grid is a valid lower envelope up to spacing

    def test_empty_query_list_rejected(self):
        with pytest.raises(ValueError):
            fit_cpt(ex41_structure(), [], FitOptions())

    def test_explicit_uniform_weights_give_the_default_fit_bit_for_bit(self):
        rng = np.random.default_rng(66)
        structure = random_net(rng, n_vars=6, arities=(2, 3), max_parents=2)
        lqs = _general_queries(rng, structure, 3) + _blanket_queries(rng, structure, 3)
        opts = FitOptions(restarts=2, max_iters=40, seed=3)
        uniform = [1.0 / len(lqs)] * len(lqs)
        assert (_fit_bytes(fit_cpt(structure, lqs, opts, weights=uniform))
                == _fit_bytes(fit_cpt(structure, lqs, opts)))
        with pytest.raises(ValueError, match="weights must match queries"):
            fit_cpt(structure, lqs, opts, weights=uniform[1:])

    def test_a_clamp_too_wide_for_an_arity_names_the_variable(self, monkeypatch):
        # 0.4 is a valid clamp for binary rows but not for ternary ones, and
        # the fit refuses it before compiling anything
        import querybn.learning as learning

        structure = make_net([("A", "01"), ("T", "012")], [("A", "T")],
                             {"A": [[0.5, 0.5]], "T": [[0.2, 0.3, 0.5]] * 2})
        lqs = [LabeledQuery(StatQuery({"T": "1"}, {"A": "1"}), 0.5)]
        fit_cpt(structure, lqs, FitOptions(eps_clamp=0.3, restarts=1, max_iters=2))
        monkeypatch.setattr(learning, "_program", None)
        with pytest.raises(ValueError, match="eps_clamp 0.4 .* of 'T'"):
            fit_cpt(structure, lqs, FitOptions(eps_clamp=0.4))


class TestFitFromEvents:
    def test_no_queries_rejected(self):
        with pytest.raises(ValueError, match="fit_cpt_from_events needs at least one query"):
            fit_cpt_from_events(ex41_structure(), [], ex41_truth())

    def test_ex41_end_to_end(self):
        truth = ex41_truth()
        qs = [lq.query for lq in ex41_labeled_queries()]
        result = fit_cpt_from_events(ex41_structure(), qs, truth,
                                     FitOptions(restarts=6, max_iters=800, seed=6),
                                     eps=0.2, delta=0.2)
        labels = {lq.query.evidence["A"]: lq.label for lq in result.labeled_queries}
        assert abs(labels["1"] - 1.0) <= 0.05
        assert abs(labels["0"] - 0.0) <= 0.05
        assert result.err < 0.01

    def test_large_eps_still_terminates(self):
        truth = ex41_truth()
        qs = [lq.query for lq in ex41_labeled_queries()]
        result = fit_cpt_from_events(ex41_structure(), qs, truth,
                                     FitOptions(restarts=2, max_iters=100, seed=7),
                                     eps=0.5, delta=0.5)
        assert result.err < 0.3

    def test_draws_scale_with_inverse_evidence_probability(self):
        from querybn.bounds import m_prime_d, m_sq
        from querybn.sampling import collect_until_matched

        # evidence A=1 has probability 0.5; C=1 and X=1 jointly 0.25
        truth = ex41_truth()
        per = m_prime_d(0.5, 0.5, m_sq(0.5, 0.5))
        totals_half, totals_quarter = [], []
        for s in range(30):
            totals_half.append(len(collect_until_matched(truth, [{"A": "1"}], per, seed=s)))
            totals_quarter.append(len(collect_until_matched(
                truth, [{"C": "1", "X": "1"}], per, seed=1000 + s)))
        ratio = np.mean(totals_quarter) / np.mean(totals_half)
        assert 1.5 < ratio < 2.6  # expected 2, Monte-Carlo slack


class TestQueryWeights:
    """Every weighted path reads its weights through one rule: finite and
    non-negative, zero allowed."""

    @staticmethod
    def _paths(weights):
        from querybn.scoring import empirical_err

        lqs = ex41_labeled_queries()
        opts = FitOptions(restarts=1, max_iters=20, seed=0)
        return {
            "fit_cpt": lambda: fit_cpt(ex41_structure(), lqs, opts, weights=weights),
            "grad": lambda: grad(ex41_bp(), lqs, weights=weights),
            "empirical_err": lambda: empirical_err(ex41_bp(), lqs, weights),
        }

    @pytest.mark.parametrize("weights, shown", [([-1.0, 2.0], "0 .* -1.0"),
                                                ([1.0, math.nan], "1 .* nan"),
                                                ([math.inf, 1.0], "0 .* inf")])
    @pytest.mark.parametrize("path", ["fit_cpt", "grad", "empirical_err"])
    def test_a_negative_or_non_finite_weight_is_rejected(self, path, weights, shown):
        with pytest.raises(ValueError, match=f"query weight {shown}"):
            self._paths(weights)[path]()

    def test_a_zero_weight_leaves_its_query_out(self):
        from querybn.scoring import empirical_err

        lqs = ex41_labeled_queries()
        paths = self._paths([0.0, 1.0])
        assert paths["empirical_err"]().aggregate == empirical_err(ex41_bp(), lqs[1:]).aggregate
        g = paths["grad"]()
        g1 = grad(ex41_bp(), lqs[1:])
        assert all(np.array_equal(g[v], g1[v]) for v in g1)
        assert math.isfinite(paths["fit_cpt"]().err)
