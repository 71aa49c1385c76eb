"""Unit tests for the experiment harness utilities."""

import json

from repro.bench import harness
from repro.bench.harness import (ExperimentResult, ShapeCheck, flattens,
                                 merge_bench_json, percentile)


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("exp", "Title", ["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a=2, b=None)
        return result

    def test_table_formatting(self):
        table = self.make().table()
        lines = table.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "2.5" in lines[2]
        assert "-" in lines[3]  # None renders as '-'

    def test_column_accessor(self):
        assert self.make().column("a") == [1, 2]

    def test_checks_and_report(self):
        result = self.make()
        result.check("good", True, "fine")
        result.check("bad", False, "broken")
        assert not result.all_checks_pass
        report = result.report()
        assert "[PASS] good" in report
        assert "[FAIL] bad — broken" in report

    def test_empty_table(self):
        result = ExperimentResult("e", "t", ["x"])
        assert result.table().splitlines()[0] == "x"

    def test_shape_check_str(self):
        assert str(ShapeCheck("n", True)) == "[PASS] n"


class TestNumericHelpers:
    def test_percentile(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0
        assert percentile([], 99.0) == 0.0

    def test_flattens(self):
        # Big early gains, tiny late gains -> flattened.
        assert flattens([10.0, 4.0, 1.0, 0.9, 0.85], knee=2)
        assert not flattens([10.0, 8.0, 6.0, 4.0, 2.0], knee=2)
        assert not flattens([1.0, 2.0], knee=0)


class TestQuickExperiments:
    def test_table1_runs_fast(self):
        from repro.bench import run_table1
        from repro.bench.workloads import Scale

        result = run_table1(Scale(n_vertices=50, n_edges=200, n_points=30,
                                  n_instances=40))
        assert result.all_checks_pass
        assert len(result.rows) == 4

    def test_cli_subset_selection(self):
        from repro.bench.__main__ import _experiments
        from repro.bench.workloads import SMALL

        experiments = _experiments(SMALL)
        assert "table2" in experiments
        assert "fig5-sssp" in experiments
        assert "skew" in experiments
        assert "live" in experiments
        assert "tenants" not in experiments
        assert len(experiments) == 20


class TestMergeBenchJson:
    """All bench writers share one merge helper: writing any one section
    must preserve every other section already committed."""

    def test_section_write_preserves_siblings(self, tmp_path):
        path = str(tmp_path / "bench.json")
        merge_bench_json(path, {"other": {"speedup": 7.0}})
        merge_bench_json(path, {"live": {"speedup": 2.2}})
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["other"] == {"speedup": 7.0}
        assert data["live"] == {"speedup": 2.2}

    def test_missing_or_corrupt_file_starts_clean(self, tmp_path):
        path = str(tmp_path / "bench.json")
        payload = merge_bench_json(path, {"live": {"v": 1}})
        assert payload == {"live": {"v": 1}, "bench": "merged"}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        payload = merge_bench_json(path, {"live": {"v": 2}})
        assert payload == {"live": {"v": 2}, "bench": "merged"}

    def test_root_is_neutral_with_per_section_provenance(
            self, tmp_path, monkeypatch):
        """The merged file must never masquerade as one writer's report:
        each section's own bench id is indexed by section name, and the
        provenance of earlier writers survives later ones."""
        monkeypatch.setattr(harness, "BENCH_SECTIONS", ("live", "other"))
        path = str(tmp_path / "bench.json")
        merge_bench_json(path, {"bench": "someone", "quick": False,
                                "other": {"bench": "other_bench"}})
        payload = merge_bench_json(
            path, {"live": {"bench": "live", "speedup": 2.0}})
        assert payload["bench"] == "merged"
        assert payload["sections"] == {"other": "other_bench",
                                       "live": "live"}
        assert payload["quick"] is False  # other top-level keys survive

    def test_output_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        merge_bench_json(a, {"other": {"x": 1}, "delta": {"y": 2}})
        merge_bench_json(b, {"delta": {"y": 2}, "other": {"x": 1}})
        assert (open(a, encoding="utf-8").read()
                == open(b, encoding="utf-8").read())
