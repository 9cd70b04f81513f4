import csv
import math
import urllib.request

import numpy as np
import pytest

from tsgp import bench
from tsgp.bench import (aggregate_runs, fetch_pmlb, load_csv, make_dataset,
                        wilcoxon_ranksum, write_results_csv, write_series_csv,
                        write_stats_csv)
from tsgp.errors import DataError
from tsgp.trace import RunTrace, write_trace_csv, write_variation_csv

from reference import read_trace_csv, read_variation_csv


def _write_csv(path, header, rows, delim=","):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, delimiter=delim)
        w.writerow(header)
        w.writerows(rows)


class TestDataset:
    def test_split_and_standardization(self):
        rng = np.random.default_rng(0)
        ds = make_dataset("toy", rng.standard_normal((101, 3)),
                          rng.standard_normal(101), seed=4)
        assert abs(len(ds.train_idx) - len(ds.test_idx)) <= 1
        assert len(set(ds.train_idx) & set(ds.test_idx)) == 0
        assert len(ds.train_idx) + len(ds.test_idx) == 101
        np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(ds.Y.std(), 1.0, atol=1e-12)

    def test_split_deterministic(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((50, 2)), rng.standard_normal(50)
        d1 = make_dataset("a", X, Y, seed=9)
        d2 = make_dataset("a", X, Y, seed=9)
        np.testing.assert_array_equal(d1.train_idx, d2.train_idx)
        d3 = make_dataset("a", X, Y, seed=10)
        assert not np.array_equal(d1.train_idx, d3.train_idx)

    @pytest.mark.parametrize("column", ["X", "Y"])
    def test_constant_column_rejected(self, column):
        """A column of one repeated inexact value, whose population std is
        about 1e-17 rather than 0."""
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((40, 2)), rng.standard_normal(40)
        if column == "X":
            X[:, 1] = 0.1
        else:
            Y[:] = 0.1
        bad = 1 if column == "X" else 0
        with pytest.raises(DataError, match=f"column {bad} is constant"):
            make_dataset("a", X, Y, seed=9)


class TestLoadCsv:
    def _rows(self, n, d=4, seed=0):
        rng = np.random.default_rng(seed)
        return [[f"{v:.6f}" for v in rng.standard_normal(d + 1)]
                for _ in range(n)]

    def test_esl_shaped_file(self, tmp_path):
        path = tmp_path / "esl.csv"
        _write_csv(path, ["f1", "f2", "f3", "f4", "target"], self._rows(488))
        ds = load_csv(path)
        assert ds.X.shape == (488, 4)

    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "t.tsv"
        _write_csv(path, ["a", "b", "target"], self._rows(30, d=2),
                   delim="\t")
        assert load_csv(path).X.shape[1] == 2

    def test_missing_target(self, tmp_path):
        path = tmp_path / "x.csv"
        _write_csv(path, ["a", "b"], self._rows(30, d=1))
        with pytest.raises(DataError, match="no column 'target' in x.csv"):
            load_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        _write_csv(path, ["a", "target"], self._rows(10, d=1))
        with pytest.raises(DataError, match="10 rows < 20"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = self._rows(25, d=1)
        rows[5][0] = "oops"
        _write_csv(path, ["a", "target"], rows)
        with pytest.raises(DataError, match="oops"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        rows = self._rows(25, d=1)
        rows[7][1] = cell
        _write_csv(path, ["a", "target"], rows)
        with pytest.raises(DataError, match="row 8.*'target'"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(DataError, match="x.csv is empty"):
            load_csv(path)

    def test_constant_column(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = self._rows(25, d=2)
        for r in rows:
            r[1] = "3.0"
        _write_csv(path, ["a", "b", "target"], rows)
        with pytest.raises(DataError, match="column 'b' is constant"):
            load_csv(path)

    @pytest.mark.parametrize("width", [2, 4])
    def test_row_width_differs_from_header(self, tmp_path, width):
        path = tmp_path / "x.csv"
        rows = [r[:2] if width == 2 else r + ["1.0"]
                for r in self._rows(25, d=2)]
        _write_csv(path, ["a", "b", "target"], rows)
        with pytest.raises(DataError, match=f"row 1 has {width} cells"):
            load_csv(path)


class TestFetch:
    def test_warm_cache_no_network(self, tmp_path, monkeypatch):
        (tmp_path / "fake_ds.tsv").write_text("a\tb\n")

        def no_network(*args, **kwargs):
            raise AssertionError("network access on a warm cache")
        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        out = fetch_pmlb("fake_ds", tmp_path)
        assert out.read_text() == "a\tb\n"


class TestWilcoxon:
    def test_worked_exact_example(self):
        assert wilcoxon_ranksum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(6)
            assert wilcoxon_ranksum(a, b) == pytest.approx(
                wilcoxon_ranksum(b, a))

    def test_identical_samples_high_p(self):
        a = list(range(10))
        assert wilcoxon_ranksum(a, a) > 0.9

    def test_exact_vs_approx_agreement(self, monkeypatch):
        rng = np.random.default_rng(3)
        samples = [(rng.standard_normal(8), rng.standard_normal(8))
                   for _ in range(100)]
        exact = [wilcoxon_ranksum(a, b) for a, b in samples]
        monkeypatch.setattr(bench, "EXACT_CUTOFF", 0)
        approx = [wilcoxon_ranksum(a, b) for a, b in samples]
        assert max(abs(e - x) for e, x in zip(exact, approx)) < 0.02

    def test_ties_use_approximation(self):
        p = wilcoxon_ranksum([1, 1, 2], [1, 2, 3])
        assert 0.0 < p <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_ranksum([], [1.0])


def _mk_trace(method, seed, bests, final_rmse, final_size=5):
    t = RunTrace(method=method, seed=seed)
    for g, b in enumerate(bests):
        t.record(g, b, 3 + g)
    t.final_best_test_rmse = final_rmse
    t.final_best_size = final_size
    return t


class TestAggregate:
    def test_median_of_finals(self):
        traces = [_mk_trace("stdgp", s, [1.0, f], f)
                  for s, f in enumerate([0.3, 0.5, 0.4])]
        last = aggregate_runs(traces)["train_rmse"][-1]
        assert last.generation == 1
        assert last.median == pytest.approx(0.4)

    def test_single_run_degenerate_iqr(self):
        agg = aggregate_runs([_mk_trace("slim", 0, [1.0], 0.7)])
        (point,) = agg["train_rmse"]
        assert point.median == 1.0
        assert point.q75 - point.q25 == 0.0

    def test_mixed_methods_rejected(self):
        with pytest.raises(DataError, match="mixed methods"):
            aggregate_runs([_mk_trace("stdgp", 0, [1.0], 0.1),
                            _mk_trace("slim", 1, [1.0], 0.1)])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no traces"):
            aggregate_runs([])

    def test_dual_path_median_from_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = [_mk_trace("stdgp", s, list(np.sort(rng.random(6))[::-1]),
                            float(rng.random())) for s in range(5)]
        agg = aggregate_runs(traces)
        # independent recomputation from round-tripped CSV files
        reread = []
        for i, t in enumerate(traces):
            path = tmp_path / f"trace_{i}.csv"
            write_trace_csv(t, path)
            reread.append(read_trace_csv(path))
        for g, pt in enumerate(agg["train_rmse"]):
            vals = [t.generations[g].best_train_rmse for t in reread]
            assert pt.median == float(np.median(vals))

    def test_sd_series_filters(self):
        t = _mk_trace("stdgp", 0, [1.0, 0.9], 0.5)
        t.log_variation(1, 3, 5, 2.0, True)
        t.log_variation(1, 3, 5, math.nan, True)   # non-finite: excluded
        t.log_variation(1, 3, 3, 9.0, False)       # not structural: excluded
        agg = aggregate_runs([t])
        assert len(agg["sd"]) == 1
        assert agg["sd"][0].median == 2.0


class TestCsvReports:
    def test_report_files(self, tmp_path):
        by_method = {
            m: [_mk_trace(m, s, [1.0, 0.8], 0.1 * (s + i + 1))
                for s in range(4)]
            for i, m in enumerate(["stdgp", "slim"])}
        aggs = {m: aggregate_runs(t) for m, t in by_method.items()}
        write_results_csv(sum(by_method.values(), []), "toy",
                          tmp_path / "results.csv")
        for metric in ("train_rmse", "size", "sd"):
            write_series_csv(aggs, metric, "toy",
                             tmp_path / f"series_{metric}.csv")
        write_stats_csv(by_method, "toy", tmp_path / "stats.csv")

        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 and rows[0]["dataset"] == "toy"
        with open(tmp_path / "series_train_rmse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"stdgp", "slim"}
        assert len(rows) == 4  # two methods x two generations
        with open(tmp_path / "stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["p_value"]) <= 1.0

    def test_variation_csv_round_trip(self, tmp_path):
        t = _mk_trace("slim", 3, [1.0], 0.5)
        t.log_variation(1, 3, 5, 0.1 + 0.2, True)
        t.log_variation(2, 3, 3, math.nan, False)
        write_variation_csv(t, tmp_path / "variations.csv")
        reread = RunTrace(method="slim", seed=3)
        read_variation_csv(tmp_path / "variations.csv", reread)
        # repr: NaN compares unequal to itself
        assert repr(reread.variations) == repr(t.variations)
