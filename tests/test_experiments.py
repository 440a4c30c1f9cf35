"""Reproduction experiments: values, determinism, report structure."""

import json

import pytest

from querybn.experiments import (CriterionRow, ExperimentReport, ex41_bp, ex41_bsq,
                                 ex41_distribution, ex41_truth, ex42_truth, ex43_truth,
                                 run_comparison, run_ex41, run_ex42, run_ex43,
                                 run_experiment, run_hoeffding, run_table1)
from querybn.inference import marginal
from querybn.scoring import true_err


class TestEx41:
    def test_headline_values_and_pass(self):
        report = run_ex41(seed=0)
        assert report.all_passed
        values = {c.name: c.value for c in report.criteria}
        assert values["true_err(B_p)"] == pytest.approx(0.25, abs=1e-9)
        assert values["true_err(B_sq)"] == pytest.approx(0.0, abs=1e-9)
        assert values["max |gradient| at uniform init"] == 0.0
        assert values["true_err(OFE @ 100000)"] >= 0.2
        assert values["empirical_err(query fit)"] < 1e-3

    def test_fixture_nets_validate(self):
        from querybn import validate

        for net in (ex41_truth(), ex41_bp(), ex41_bsq()):
            assert validate(net) == []


class TestEx42:
    def test_structured_estimator_wins_at_2000(self):
        report = run_ex42(n=10, sample_sizes=(2000,), trials=30, seed=0)
        assert report.all_passed
        row = report.tables["curves"][0]
        assert row["median_abs_err_structured"] < row["median_abs_err_direct"]
        # the rare evidence is essentially never observed at this size
        assert row["direct_undefined_rate"] > 0.9

    def test_both_estimators_consistent_in_the_limit(self):
        report = run_ex42(n=6, sample_sizes=(200_000,), trials=3, seed=1)
        row = report.tables["curves"][0]
        # n=6 makes the all-zeros event common enough to estimate directly
        assert row["median_abs_err_structured"] < 0.05
        assert row["median_abs_err_direct"] < 0.05

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            run_ex42(n=2)

    def test_report_lists_the_truth_it_samples_from(self):
        n = 4
        p = run_ex42(n=n, sample_sizes=(2000,), trials=1).params["truth"]
        truth = ex42_truth(n)
        assert truth.cpts["C"].table[0].tolist() == [p["p_c0"], 1.0 - p["p_c0"]]
        for i in range(1, n + 1):
            assert truth.cpts[f"A{i}"].table.tolist() == [[p["p_a0_c0"], 1.0 - p["p_a0_c0"]],
                                                          [p["p_a0_c1"], 1.0 - p["p_a0_c1"]]]


class TestEx43:
    def test_truth_class_prior(self):
        assert marginal(ex43_truth(n=8), {"C": "1"}) == pytest.approx(0.25, abs=1e-4)

    def test_report_criteria(self):
        report = run_ex43(n=10, n_samples=1000, trials=25, seed=0)
        assert report.all_passed
        laplace = [r["laplace_ofe_b_c1"] for r in report.tables["trials"]]
        assert all(0.4 <= v <= 0.6 for v in laplace)

    def test_sample_size_gate(self):
        with pytest.raises(ValueError, match="rows"):
            run_ex43(n=5, n_samples=64)

    def test_attribute_count_gate(self):
        with pytest.raises(ValueError, match="ex4.3 needs at least 4 attributes"):
            run_ex43(n=3)


class TestTable1:
    def test_grid_and_criteria(self):
        report = run_table1(seed=0, sample_sizes=(100, 10_000))
        assert report.all_passed
        rows = report.tables["curves"]
        assert {(r["structure"], r["method"]) for r in rows} == {
            ("given", "ofe"), ("given", "qfit"), ("correct", "ofe"), ("correct", "qfit")}
        ofe_wrong = [r["err"] for r in rows
                     if r["structure"] == "given" and r["method"] == "ofe"]
        assert min(ofe_wrong) >= 0.2  # plateau, never approaches zero

    def test_run_comparison_emits_complete_grid(self):
        rows = run_comparison(ex41_truth(), ex41_bp(), ex41_distribution(), (500,), seed=3)
        assert len(rows) == 2


class TestHoeffding:
    def test_coverage_within_delta(self):
        report = run_hoeffding(eps=0.1, delta=0.1, trials=200, seed=0)
        assert report.all_passed
        assert report.criteria[0].value <= 0.1

    def test_true_err_is_nontrivial(self):
        report = run_hoeffding(trials=5, seed=1)
        assert 0.0 < report.scalars["true_err"] < 1.0


class TestReportPlumbing:
    def test_bit_reproducible_given_seed(self):
        a = run_ex43(n=10, n_samples=500, trials=10, seed=7).to_dict()
        b = run_ex43(n=10, n_samples=500, trials=10, seed=7).to_dict()
        assert a == b

    def test_seed_changes_results(self):
        a = run_ex43(n=10, n_samples=500, trials=10, seed=7).tables["trials"]
        b = run_ex43(n=10, n_samples=500, trials=10, seed=8).tables["trials"]
        assert a != b

    def test_jobs_do_not_change_results(self):
        a = run_ex42(n=8, sample_sizes=(500,), trials=8, seed=2, jobs=1).to_dict()
        b = run_ex42(n=8, sample_sizes=(500,), trials=8, seed=2, jobs=2).to_dict()
        assert a == b

    def test_json_and_csv_outputs(self, tmp_path):
        report = run_ex41(seed=0)
        report.write_json(tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["experiment"] == "ex4.1" and doc["all_passed"]
        written = report.write_tables_csv(tmp_path)
        assert any(p.endswith("criteria.csv") for p in written)

    def test_empty_table_csv_is_written_and_returned(self, tmp_path):
        report = ExperimentReport("x", 0, {})
        report.tables["empty"] = []
        written = report.write_tables_csv(tmp_path)
        assert str(tmp_path / "x_empty.csv") in written
        assert (tmp_path / "x_empty.csv").read_text() == ""

    def test_dispatch_by_id(self):
        report = run_experiment("ex4.3", seed=0, n=8, n_samples=200, trials=5)
        assert report.experiment == "ex4.3"
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_all_passed_reflects_criteria(self):
        report = ExperimentReport("x", 0, {})
        report.check("a", 1.0, "any", True)
        assert report.all_passed
        report.check("b", 2.0, "any", False)
        assert not report.all_passed
        assert isinstance(report.criteria[0], CriterionRow)
