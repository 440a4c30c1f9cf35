"""Command-line surface: exit codes, file outputs, parity with the library."""

import csv
import json

import numpy as np
import pytest

from querybn import InvalidNetError, load_net, net_to_dict, save_net, true_err
from querybn.cli import main
from querybn.experiments import ex41_bp, ex41_bsq, ex41_distribution, ex41_truth
from querybn.queries import LabeledQuery, save_queries, StatQuery
from querybn.sampling import cond_freq, forward_sample, load_dataset, save_dataset

from helpers import certain_parent_net, ruled_out_blanket_net


@pytest.fixture()
def ex41_files(tmp_path):
    paths = {}
    paths["bp"] = tmp_path / "bp.json"
    save_net(ex41_bp(), paths["bp"])
    paths["truth"] = tmp_path / "truth.json"
    save_net(ex41_truth(), paths["truth"])
    paths["queries"] = tmp_path / "queries.json"
    save_queries(paths["queries"], [(q, w) for q, w in ex41_distribution().atoms])
    paths["labeled"] = tmp_path / "labeled.json"
    save_queries(paths["labeled"],
                 [(StatQuery({"C": "1"}, {"A": "1"}), 0.5, 1.0),
                  (StatQuery({"C": "1"}, {"A": "0"}), 0.5, 0.0)])
    paths["out"] = tmp_path / "out"
    return paths


class TestValidateCommand:
    def test_valid_net_exits_zero(self, ex41_files, capsys):
        assert main(["validate", "--net", str(ex41_files["bp"])]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violation_exits_one_and_lists_it(self, tmp_path, capsys):
        doc = net_to_dict(ex41_bp())
        doc["cpts"]["A"] = [[0.6, 0.6]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--net", str(path)]) == 1
        out = capsys.readouterr().out
        assert "sum" in out and out.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["variables"].append({"name": "A", "domain": ["0", "1"]}),
         "duplicate variable name 'A'"),
        (lambda d: d["variables"][0].update(domain=["0"]),
         "variable 'A': domain must list at least 2 values"),
        (lambda d: d["variables"][0].update(domain=["0", "0"]),
         "variable 'A': duplicate value labels"),
        (lambda d: d["edges"].append(["A", "Q"]), "edge references unknown child 'Q'"),
        (lambda d: d["edges"].append(["A", "B"]), "node 'B': duplicate parents"),
        (lambda d: d["edges"].append(["Z", "B"]), "node 'B': unknown parent 'Z'"),
        (lambda d: d["cpts"].pop("B"), "variable 'B' has no CPT"),
        (lambda d: d["cpts"].update(Z=[[0.5, 0.5]]), "CPT for unknown variable 'Z'"),
        (lambda d: d["cpts"].update(A=[[[0.5, 0.5]]]), "cpt[A]: shape (1, 1, 2) is not (rows, 2)"),
        (lambda d: d["cpts"].update(A=[[float("nan"), 0.5]]), "cpt[A]: non-finite entries"),
    ], ids=["duplicate-name", "one-value-domain", "duplicate-labels", "unknown-child",
            "duplicate-parents", "unknown-parent", "missing-cpt", "cpt-of-unknown",
            "table-shape", "non-finite"])
    def test_each_violation_exits_one_and_is_listed(self, tmp_path, capsys, edit, message):
        doc = {"variables": [{"name": "A", "domain": ["0", "1"]},
                             {"name": "B", "domain": ["0", "1"]}],
               "edges": [["A", "B"]], "cpts": {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]] * 2}}
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--net", str(path)]) == 1
        assert message in capsys.readouterr().out.splitlines()

    def test_an_edge_to_an_undeclared_variable_fails_to_load(self, tmp_path, capsys):
        doc = net_to_dict(ex41_bp())
        doc["edges"].append(["A", "Q"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetError, match="edge references unknown child 'Q'"):
            load_net(path)
        assert main(["sample", "--net", str(path), "-n", "1", "--out", str(tmp_path)]) == 1
        assert "edge references unknown child 'Q'" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["validate", "--net", str(path)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", "--net", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "0.5", "inf"])
    def test_clamp_outside_its_range_exits_two(self, ex41_files, capsys, eps):
        assert main(["validate", "--net", str(ex41_files["bp"]), f"--clamped={eps}"]) == 2
        captured = capsys.readouterr()
        assert "invalid --clamped" in captured.err and "ok" not in captured.out


class TestEvalCommand:
    def test_true_mode_reproduces_the_quarter(self, ex41_files, capsys):
        code = main(["eval", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]),
                     "--truth", str(ex41_files["truth"]),
                     "--out", str(ex41_files["out"])])
        assert code == 0
        doc = json.loads((ex41_files["out"] / "report.json").read_text())
        assert doc["aggregate"] == pytest.approx(0.25, abs=1e-9)

    def test_labeled_mode_self_consistency(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        save_net(ex41_bp(), net_path)
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(StatQuery({"C": "1"}, {"A": "1"}), 0.5, 0.5),
                             (StatQuery({"C": "1"}, {"A": "0"}), 0.5, 0.5)])
        out = tmp_path / "out"
        assert main(["eval", "--net", str(net_path), "--queries", str(qpath),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["aggregate"] == pytest.approx(0.0, abs=1e-12)

    def test_data_mode_matches_library_bit_exactly(self, ex41_files, tmp_path):
        data = forward_sample(ex41_truth(), 2000, seed=5)
        dpath = tmp_path / "d.csv"
        save_dataset(data, dpath)
        out = ex41_files["out"]
        assert main(["eval", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]),
                     "--data", str(dpath), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())

        from querybn import empirical_err_from_events

        net = load_net(ex41_files["bp"])
        lib = empirical_err_from_events(
            net, [q for q, _ in ex41_distribution().atoms], load_dataset(dpath, net))
        assert doc["aggregate"] == lib.aggregate  # bit-exact parity

    def test_data_mode_on_a_uniform_six_atom_file_uses_one_sixth_each(self, ex41_files,
                                                                       tmp_path):
        # the file's weights are kept as written, so 1/6 stays 1/6 and the
        # aggregate equals the library's unweighted mean bit for bit
        qs = [StatQuery({t: "1"}, {e: v}) for t, e in (("C", "A"), ("X", "A"), ("C", "X"))
              for v in "01"]
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(q, 1 / 6) for q in qs])
        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 2000, seed=5), dpath)
        out = ex41_files["out"]
        assert main(["eval", "--net", str(ex41_files["bp"]), "--queries", str(qpath),
                     "--data", str(dpath), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())

        from querybn import empirical_err_from_events

        net = load_net(ex41_files["bp"])
        lib = empirical_err_from_events(net, qs, load_dataset(dpath, net))
        assert doc["aggregate"] == lib.aggregate

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_a_non_finite_weight_exits_two(self, ex41_files, tmp_path, capsys, weight):
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(StatQuery({"C": "1"}, {"A": "1"}), weight),
                             (StatQuery({"C": "1"}, {"A": "0"}), 0.5)])
        assert main(["eval", "--net", str(ex41_files["bp"]), "--queries", str(qpath),
                     "--truth", str(ex41_files["truth"]), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "cannot parse query file" in err and "P(C=1 | A=1)" in err

    def test_without_reference_exits_two(self, ex41_files):
        assert main(["eval", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]),
                     "--out", str(ex41_files["out"])]) == 2

    def test_illegal_query_under_truth_exits_one(self, tmp_path):
        det = ex41_truth().with_tables({"A": [[1.0, 0.0]]})
        tpath = tmp_path / "truth.json"
        save_net(det, tpath)
        npath = tmp_path / "net.json"
        save_net(ex41_bp(), npath)
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(StatQuery({"C": "1"}, {"A": "1"}), 1.0)])
        assert main(["eval", "--net", str(npath), "--queries", str(qpath),
                     "--truth", str(tpath), "--out", str(tmp_path / "o")]) == 1

    def test_a_blanket_query_the_net_rules_out_is_a_noted_row(self, tmp_path, capsys):
        net, q = ruled_out_blanket_net()
        npath, qpath, out = tmp_path / "net.json", tmp_path / "q.json", tmp_path / "o"
        save_net(net, npath)
        save_queries(qpath, [(q, 1.0, 0.0)])
        assert main(["eval", "--net", str(npath), "--queries", str(qpath),
                     "--out", str(out)]) == 0
        assert "warning: 1 queries could not be answered" in capsys.readouterr().err
        doc = json.loads((out / "report.json").read_text())
        assert doc["aggregate"] == 0.0
        assert doc["rows"][0]["note"] == "hypothesis assigns zero probability to the evidence"

    @pytest.mark.parametrize("label", [1.5, float("nan")])
    @pytest.mark.parametrize("command", [["eval"], ["learn", "--mode", "qfit"]])
    def test_label_outside_unit_interval_exits_two(self, ex41_files, tmp_path, capsys,
                                                   command, label):
        qpath = tmp_path / "q.json"
        save_queries(qpath, [(StatQuery({"C": "1"}, {"A": "1"}), 1.0, label)])
        assert main([*command, "--net", str(ex41_files["bp"]), "--queries", str(qpath),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "cannot parse query file" in err and "P(C=1 | A=1)" in err


    @pytest.mark.parametrize("command", [["eval"], ["learn", "--mode", "qfit"]])
    def test_a_query_file_that_is_not_an_object_exits_two(self, ex41_files, tmp_path, capsys,
                                                          command):
        qpath = tmp_path / "q.json"
        qpath.write_text("[1, 2]")
        assert main([*command, "--net", str(ex41_files["bp"]), "--queries", str(qpath),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"cannot parse query file {qpath}: a query file holds a JSON object, not list" \
            in capsys.readouterr().err


class TestReferences:
    @pytest.mark.parametrize("reference", ["truth", "data"])
    def test_learn_prefers_truth_then_data_to_the_files_labels(self, ex41_files, tmp_path,
                                                                reference):
        # the file's labels are wrong; eval --truth scores against the truth
        wrong = tmp_path / "wrong.json"
        save_queries(wrong, [(q, w, label) for (q, w), label
                             in zip(ex41_distribution().atoms, (0.3, 0.6))])
        assert main(["eval", "--net", str(ex41_files["bp"]), "--queries", str(wrong),
                     "--truth", str(ex41_files["truth"]), "--out", str(tmp_path / "e")]) == 0
        doc = json.loads((tmp_path / "e" / "report.json").read_text())
        assert doc["aggregate"] == pytest.approx(0.25, abs=1e-9)
        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 500, seed=2), dpath)
        source = {"truth": str(ex41_files["truth"]), "data": str(dpath)}[reference]
        nets = []
        for queries, extra in ((ex41_files["queries"], [f"--{reference}", source]),
                               (wrong, [f"--{reference}", source]), (wrong, [])):
            out = tmp_path / f"o{len(nets)}"
            assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                         "--queries", str(queries), *extra, "--restarts", "2",
                         "--max-iters", "100", "--out", str(out)]) == 0
            nets.append((out / "net.json").read_bytes())
        assert nets[1] == nets[0] != nets[2]

    @pytest.mark.parametrize("domains, message", [
        ({"X": "01", "C": "01"}, "unknown variable 'A'"),
        ({"A": "02", "X": "01", "C": "01"}, "value '1' not in domain of 'A'"),
    ], ids=["missing-variable", "unknown-value"])
    @pytest.mark.parametrize("command", [["eval"], ["learn", "--mode", "qfit"]],
                             ids=["eval", "learn"])
    def test_a_truth_net_without_a_querys_binding_exits_two(self, ex41_files, tmp_path,
                                                            capsys, command, domains, message):
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({
            "variables": [{"name": v, "domain": list(d)} for v, d in domains.items()],
            "cpts": {v: [[0.5, 0.5]] for v in domains}}))
        assert main([*command, "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]), "--truth", str(tpath),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"--truth {tpath} cannot answer P(C=1 | A=1): {message}" in capsys.readouterr().err


class TestDataFileErrors:
    COMMANDS = {
        "eval": lambda f: ["eval", "--net", str(f["bp"]), "--queries", str(f["queries"])],
        "learn-ofe": lambda f: ["learn", "--mode", "ofe", "--net", str(f["bp"])],
        "learn-qfit": lambda f: ["learn", "--mode", "qfit", "--net", str(f["bp"]),
                                 "--queries", str(f["queries"])],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_data_file_exits_two(self, ex41_files, tmp_path, capsys, command):
        path = tmp_path / "nope.csv"
        assert main([*self.COMMANDS[command](ex41_files), "--data", str(path),
                     "--out", str(ex41_files["out"])]) == 2
        assert f"cannot read data file: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_malformed_data_file_exits_two(self, ex41_files, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        path.write_text("A,X,Q\n0,1,0\n")
        assert main([*self.COMMANDS[command](ex41_files), "--data", str(path),
                     "--out", str(ex41_files["out"])]) == 2
        assert f"cannot parse data file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["learn", "--mode", "qfit"]])
    def test_data_without_tuples_lists_every_unmatched_query(self, ex41_files, tmp_path,
                                                            capsys, command):
        qpath, dpath = tmp_path / "q.json", tmp_path / "d.csv"
        queries = [StatQuery({"C": "1"}), StatQuery({"C": "1"}, {"A": "1"})]
        save_queries(qpath, [(q, 0.5) for q in queries])
        dpath.write_text("A,X,C\n")
        assert main([*command, "--net", str(ex41_files["bp"]), "--queries", str(qpath),
                     "--data", str(dpath), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert all(q.id() in err for q in queries)


class TestLearnCommand:
    def test_ofe_recovers_bp_entries(self, ex41_files, tmp_path):
        data = forward_sample(ex41_truth(), 10_000, seed=6)
        dpath = tmp_path / "d.csv"
        save_dataset(data, dpath)
        out = ex41_files["out"]
        assert main(["learn", "--mode", "ofe", "--net", str(ex41_files["bp"]),
                     "--data", str(dpath), "--out", str(out)]) == 0
        fitted = load_net(out / "net.json")
        for v in ("X", "C"):
            assert np.abs(fitted.cpts[v].table - 0.5).max() < 0.02

    def test_qfit_reaches_tolerance_and_writes_trace(self, ex41_files, capsys):
        out = ex41_files["out"]
        code = main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["labeled"]),
                     "--restarts", "10", "--max-iters", "2000",
                     "--out", str(out), "--seed", "0"])
        assert code == 0
        from querybn import empirical_err
        from querybn.queries import load_queries

        net = load_net(out / "net.json")
        qf = load_queries(ex41_files["labeled"], net)
        assert empirical_err(net, qf.labeled()).aggregate < 1e-3
        rows = list(csv.reader((out / "trace.csv").read_text().splitlines()))
        assert rows[0][:3] == ["restart", "iteration", "err"]
        assert len(rows) > 1
        for row in rows[1:]:  # plain numbers, never a numpy scalar's repr
            for field in row:
                float(field)

    def test_qfit_prints_the_written_nets_empirical_err(self, ex41_files, tmp_path, capsys):
        # labels from sampled tuples, so the fitted error is not zero
        from querybn import empirical_err
        from querybn.queries import load_queries

        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 2000, seed=0), dpath)
        out = ex41_files["out"]
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]), "--data", str(dpath),
                     "--restarts", "3", "--max-iters", "300", "--seed", "0",
                     "--out", str(out)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("final empirical err: "))
        printed = float(line.split()[3])
        net = load_net(out / "net.json")
        data = load_dataset(dpath, net)
        lqs = [LabeledQuery(q, cond_freq(data, q.target, q.evidence))
               for q in load_queries(ex41_files["queries"], net).queries()]
        assert printed == empirical_err(net, lqs).aggregate

    def test_seeded_qfit_writes_identical_files(self, ex41_files, tmp_path):
        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 2000, seed=4), dpath)
        written = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                         "--queries", str(ex41_files["queries"]), "--data", str(dpath),
                         "--restarts", "3", "--max-iters", "200", "--seed", "5",
                         "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in ("net.json", "trace.csv")])
        assert written[0] == written[1]

    def test_qfit_fits_and_prints_the_query_weighted_error(self, tmp_path, capsys):
        # two independent binary variables: the answer to either query is
        # P(B=1), so the fit lands on the weighted mean label 0.9*0.9 + 0.1*0.1
        from querybn import BayesNet, Dag, Variable

        net = BayesNet.uniform([Variable("A", ("0", "1")), Variable("B", ("0", "1"))],
                               Dag.from_edges(["A", "B"], []))
        npath, qpath, out = tmp_path / "net.json", tmp_path / "q.json", tmp_path / "out"
        save_net(net, npath)
        save_queries(qpath, [(StatQuery({"B": "1"}, {"A": "0"}), 0.9, 0.9),
                             (StatQuery({"B": "1"}, {"A": "1"}), 0.1, 0.1)])
        assert main(["learn", "--mode", "qfit", "--net", str(npath), "--queries", str(qpath),
                     "--out", str(out)]) == 0
        assert load_net(out / "net.json").cpts["B"].table[0, 1] == pytest.approx(0.82, abs=1e-6)
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("final empirical err: "))
        assert main(["eval", "--net", str(out / "net.json"), "--queries", str(qpath),
                     "--out", str(tmp_path / "eval")]) == 0
        aggregate = json.loads((tmp_path / "eval" / "report.json").read_text())["aggregate"]
        assert float(line.split()[3]) == aggregate == pytest.approx(0.0576, abs=1e-9)

    def test_qfit_without_queries_exits_two(self, ex41_files):
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--out", str(ex41_files["out"])]) == 2

    def test_qfit_without_a_reference_exits_two(self, ex41_files, capsys):
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]),
                     "--out", str(ex41_files["out"])]) == 2
        assert "learn --mode qfit needs --truth, --data, or labels on every query atom" \
            in capsys.readouterr().err
        assert not (ex41_files["out"] / "net.json").exists()

    def test_qfit_labels_via_truth(self, ex41_files):
        out = ex41_files["out"]
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]),
                     "--truth", str(ex41_files["truth"]),
                     "--restarts", "6", "--max-iters", "800",
                     "--out", str(out)]) == 0

    def test_qfit_labels_a_certain_query_via_truth(self, tmp_path):
        # P(A=1 | B=1) is exactly 1, and its label must not round above 1
        npath, qpath = tmp_path / "net.json", tmp_path / "q.json"
        save_net(certain_parent_net(), npath)
        save_queries(qpath, [(StatQuery({"A": "1"}, {"B": "1"}), 1.0)])
        assert main(["learn", "--mode", "qfit", "--net", str(npath), "--queries", str(qpath),
                     "--truth", str(npath), "--restarts", "1", "--max-iters", "20",
                     "--out", str(tmp_path / "out")]) == 0

    def test_qfit_labels_via_data(self, ex41_files, tmp_path):
        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 2000, seed=7), dpath)
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["queries"]), "--data", str(dpath),
                     "--restarts", "2", "--max-iters", "50",
                     "--out", str(ex41_files["out"])]) == 0
        assert (ex41_files["out"] / "net.json").exists()

    def test_init_net_starts_from_the_net_file(self, ex41_files, tmp_path):
        from querybn import empirical_err
        from querybn.experiments import ex41_labeled_queries

        npath = tmp_path / "bsq.json"
        save_net(ex41_bsq(), npath)
        out = ex41_files["out"]
        assert main(["learn", "--mode", "qfit", "--net", str(npath), "--init", "net",
                     "--queries", str(ex41_files["labeled"]),
                     "--restarts", "1", "--max-iters", "1", "--out", str(out)]) == 0
        net = load_net(out / "net.json")
        assert empirical_err(net, ex41_labeled_queries()).aggregate < 1e-9

    def test_ofe_init_is_not_a_choice(self, ex41_files):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]), "--init", "ofe",
                  "--queries", str(ex41_files["labeled"]), "--out", str(ex41_files["out"])])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--restarts", "0"], ["--max-iters", "0"],
                                      ["--tol", "-1"], ["--clamp", "0.6"], ["--tol", "nan"]])
    def test_invalid_fit_options_exit_two(self, ex41_files, capsys, flag):
        assert main(["learn", "--mode", "qfit", "--net", str(ex41_files["bp"]),
                     "--queries", str(ex41_files["labeled"]), *flag,
                     "--out", str(ex41_files["out"])]) == 2
        assert "invalid fit options" in capsys.readouterr().err

    def test_a_clamp_too_wide_for_a_ternary_variable_exits_two(self, tmp_path, capsys):
        from querybn import BayesNet, Dag, Variable

        net = BayesNet.uniform([Variable("A", ("0", "1")), Variable("T", ("0", "1", "2"))],
                               Dag.from_edges(["A", "T"], [("A", "T")]))
        npath, qpath = tmp_path / "net.json", tmp_path / "q.json"
        save_net(net, npath)
        save_queries(qpath, [(StatQuery({"T": "1"}, {"A": "1"}), 1.0, 0.5)])
        assert main(["learn", "--mode", "qfit", "--net", str(npath), "--queries", str(qpath),
                     "--clamp", "0.4", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid fit options" in err and "'T'" in err

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_ofe_smoothing_outside_its_range_exits_two(self, ex41_files, tmp_path, capsys,
                                                       alpha):
        dpath = tmp_path / "d.csv"
        save_dataset(forward_sample(ex41_truth(), 20, seed=6), dpath)
        out = ex41_files["out"]
        assert main(["learn", "--mode", "ofe", "--net", str(ex41_files["bp"]),
                     "--data", str(dpath), f"--alpha={alpha}", "--out", str(out)]) == 2
        assert "invalid --alpha" in capsys.readouterr().err
        assert not (out / "net.json").exists()

    def test_ofe_without_data_exits_two(self, ex41_files):
        assert main(["learn", "--mode", "ofe", "--net", str(ex41_files["bp"]),
                     "--out", str(ex41_files["out"])]) == 2


class TestSampleCommand:
    def test_zero_samples_writes_header_only(self, ex41_files):
        out = ex41_files["out"]
        assert main(["sample", "--net", str(ex41_files["truth"]), "-n", "0",
                     "--out", str(out)]) == 0
        assert (out / "data.csv").read_text().strip() == "A,X,C"

    def test_negative_size_exits_two(self, ex41_files, capsys):
        out = ex41_files["out"]
        assert main(["sample", "--net", str(ex41_files["truth"]), "-n", "-1",
                     "--out", str(out)]) == 2
        assert "sample size must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_seed_is_byte_identical(self, ex41_files, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["sample", "--net", str(ex41_files["truth"]), "-n", "500",
                         "--seed", "9", "--out", str(out)]) == 0
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()

    def test_ex43_class_frequency(self, tmp_path):
        from querybn.experiments import ex43_truth

        npath = tmp_path / "net.json"
        save_net(ex43_truth(n=6), npath)
        out = tmp_path / "out"
        assert main(["sample", "--net", str(npath), "-n", "100000", "--seed", "3",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "data.csv").read_text().splitlines()))
        freq = sum(1 for r in rows if r["C"] == "1") / len(rows)
        assert abs(freq - 0.25) < 0.01


class TestBoundsCommand:
    def test_table_contains_m_lsq_fixture(self, capsys):
        assert main(["bounds", "--eps", "0.1", "--delta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "M_LSQ" in out and "185" in out and "877" in out

    def test_lambda_row_omitted_without_lambda(self, capsys):
        assert main(["bounds", "--eps", "0.1", "--delta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "M_D " not in out and "M_D\t" not in out
        assert main(["bounds", "--eps", "0.1", "--delta", "0.05", "--lam", "0.2"]) == 0
        assert "M_D" in capsys.readouterr().out

    def test_structure_bound_needs_all_three_params(self, capsys):
        assert main(["bounds", "--eps", "0.1", "--delta", "0.05", "--K", "4"]) == 0
        assert "M'_LSQ" not in capsys.readouterr().out
        assert main(["bounds", "--eps", "0.1", "--delta", "0.05",
                     "--K", "4", "--N", "3", "--c", "2.0"]) == 0
        assert "M'_LSQ" in capsys.readouterr().out

    def test_out_of_range_exits_two(self):
        assert main(["bounds", "--eps", "0", "--delta", "0.05"]) == 2


class TestReproCommand:
    def test_ex41_passes_and_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["repro", "--id", "ex4.1", "--out", str(out), "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        doc = json.loads((out / "ex4_1_report.json").read_text())
        assert doc["all_passed"]
        assert (out / "ex4_1_criteria.csv").exists()

    def test_unknown_id_exits_two(self, tmp_path):
        assert main(["repro", "--id", "nope", "--out", str(tmp_path / "o")]) == 2

    def test_param_overrides(self, tmp_path):
        out = tmp_path / "out"
        assert main(["repro", "--id", "ex4.3", "--out", str(out), "--seed", "1",
                     "--params", '{"n": 10, "n_samples": 1000, "trials": 10}']) == 0

    def test_non_object_params_exit_two(self, tmp_path, capsys):
        assert main(["repro", "--id", "hoeffding", "--out", str(tmp_path / "o"),
                     "--params", "[1]"]) == 2
        assert "--params must be a JSON object" in capsys.readouterr().err

    def test_malformed_params_exit_two(self, tmp_path, capsys):
        assert main(["repro", "--id", "hoeffding", "--out", str(tmp_path / "o"),
                     "--params", "{"]) == 2
        assert "--params must be a JSON object: Expecting property name" \
            in capsys.readouterr().err

    def test_zero_jobs_exit_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repro", "--id", "hoeffding", "--out", str(tmp_path / "o"), "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_zero_evidence_in_a_run_exits_one_with_a_message(self, tmp_path, capsys,
                                                               monkeypatch):
        import querybn.cli as cli
        from querybn.inference import ZeroEvidence

        def underflowing_run(experiment_id, **kwargs):
            raise ZeroEvidence({"A1": "0", "A2": "0"})

        monkeypatch.setattr(cli, "run_experiment", underflowing_run)
        out = tmp_path / "o"
        assert main(["repro", "--id", "ex4.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "repro ex4.2: evidence has zero probability: A1=0, A2=0\n"
        assert not out.exists()

    def test_unknown_params_exit_two_and_are_named(self, tmp_path, capsys):
        assert main(["repro", "--id", "hoeffding", "--out", str(tmp_path / "o"),
                     "--params", '{"bogus": 1, "seed": 3, "trials": 10}']) == 2
        err = capsys.readouterr().err
        assert "bogus, seed" in err and "trials" in err.split("choose from")[1]

    @pytest.mark.parametrize("experiment, params, message", [
        ("hoeffding", '{"trials": "x"}', '--params trials must be like 200, got "x"'),
        ("hoeffding", '{"trials": true}', "--params trials must be like 200, got true"),
        ("ex4.2", '{"sample_sizes": ["a"]}',
         '--params sample_sizes must be like [500, 1000, 2000, 4000], got ["a"]'),
    ], ids=["trials-string", "trials-bool", "sample_sizes-string"])
    def test_wrongly_typed_params_exit_two(self, tmp_path, capsys, experiment, params, message):
        assert main(["repro", "--id", experiment, "--out", str(tmp_path / "o"),
                     "--params", params]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, params, message", [
        ("hoeffding", '{"eps": 1}', "invalid arguments for hoeffding: eps must lie in (0, 1)"),
        ("ex4.2", '{"sample_sizes": []}',
         "invalid arguments for ex4.2: ex4.2 needs at least one sample size"),
        ("ex4.2", '{"trials": 0}', "invalid arguments for ex4.2: trials must be at least 1, got 0"),
        ("ex4.3", '{"trials": 0}', "invalid arguments for ex4.3: trials must be at least 1, got 0"),
        ("ex4.3", '{"n_samples": 0}',
         "invalid arguments for ex4.3: n_samples must be at least 1, got 0"),
        ("hoeffding", '{"trials": 0}',
         "invalid arguments for hoeffding: trials must be at least 1, got 0"),
    ], ids=["hoeffding-eps-out-of-range", "ex4.2-no-sample-sizes", "ex4.2-no-trials",
            "ex4.3-no-trials", "ex4.3-no-samples", "hoeffding-no-trials"])
    def test_params_the_runner_rejects_exit_two(self, tmp_path, capsys, experiment, params,
                                                message):
        out = tmp_path / "o"
        assert main(["repro", "--id", experiment, "--out", str(out), "--params", params]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_param_types_follow_the_defaults(self):
        from querybn.cli import _param_fits

        assert _param_fits(1, 0.1) and _param_fits(0.5, 0.1) and _param_fits([1, 2], (500,))
        assert not _param_fits(1.0, 200) and not _param_fits(True, 0.1)
        assert not _param_fits([1.5], (500,)) and not _param_fits(500, (500,))

    def test_failing_criteria_exit_one(self, tmp_path):
        # 200 samples are too few for the direct estimator's 0.05 band at
        # this seed; the run completes but reports the failure
        out = tmp_path / "out"
        assert main(["repro", "--id", "ex4.3", "--out", str(out), "--seed", "1",
                     "--params", '{"n": 8, "n_samples": 200, "trials": 10}']) == 1

    def test_ex42_falls_back_when_the_learned_net_rules_the_evidence_out(self, tmp_path):
        # at 50 tuples, seed 0's first trial learns an unsmoothed net that gives
        # the evidence probability 0, and the evidence never occurs: both
        # estimators answer 0.5, so with one trial neither wins
        params = '{"n": 4, "sample_sizes": [50], "trials": %d}'
        out = tmp_path / "one"
        assert main(["repro", "--id", "ex4.2", "--out", str(out), "--params", params % 1]) == 1
        row = json.loads((out / "ex4_2_report.json").read_text())["tables"]["curves"][0]
        assert row["median_abs_err_structured"] == row["median_abs_err_direct"]
        assert row["direct_undefined_rate"] == 1.0
        assert main(["repro", "--id", "ex4.2", "--out", str(tmp_path / "two"),
                     "--params", params % 2]) == 0

    def test_hoeffding_passes(self, tmp_path):
        assert main(["repro", "--id", "hoeffding", "--out", str(tmp_path / "o"),
                     "--seed", "0", "--params", '{"trials": 200}']) == 0


class TestCliLibraryParity:
    def test_eval_true_mode_bit_exact(self, ex41_files):
        out = ex41_files["out"]
        main(["eval", "--net", str(ex41_files["bp"]),
              "--queries", str(ex41_files["queries"]),
              "--truth", str(ex41_files["truth"]), "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        lib = true_err(ex41_bp(), ex41_distribution(), ex41_truth()).aggregate
        assert doc["aggregate"] == lib
