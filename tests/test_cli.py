"""Command-line interface: argument handling, artifacts, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from blowup_lab.cli import EXPERIMENTS, emit_csv, main, run


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestListExperiments:
    def test_prints_all_kinds(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == list(EXPERIMENTS)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json")) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(str(path)) == 2

    def test_unknown_experiment(self, tmp_path):
        cfg = _write(tmp_path, {"experiment": "does-not-exist"})
        assert run(cfg) == 2

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        assert run(str(path)) == 2

    def test_malformed_range(self, tmp_path):
        cfg = _write(tmp_path, {
            "experiment": "schedule-table",
            "eps_range": {"min": 0.1, "max": 0.01, "count": 5}})
        assert run(cfg, out=str(tmp_path)) == 2

    @pytest.mark.parametrize("payload, key, accepted", [
        # a misspelt threshold would otherwise run at the default 1e-6
        ({"experiment": "flat-energy", "thresold": 1e-30}, "'thresold'",
         "budget, dims, experiment, out, radius, threshold"),
        ({"experiment": "expansion-sweep",
          "model": {"kind": "product_spheres", "n": 7}}, "'n'",
         "kind, p, q"),
        ({"experiment": "schedule-table",
          "eps_range": {"min": 1e-10, "max": 1e-4, "points": 5}}, "'points'",
         "count, max, min"),
    ])
    def test_unknown_key(self, tmp_path, capsys, payload, key, accepted):
        outdir = tmp_path / "o"
        assert run(_write(tmp_path, payload), out=str(outdir)) == 2
        err = capsys.readouterr().err
        assert key in err and f"accepted: {accepted}" in err
        assert not outdir.exists()

    def test_capacity_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, {
            "experiment": "flat-energy", "dims": [6], "budget": 100})
        assert run(cfg, out=str(tmp_path)) == 3

    @pytest.mark.parametrize("payload, code, message", [
        # a value of the wrong type: malformed config
        ({"experiment": "flat-energy", "dims": "six"}, 2, "malformed config"),
        # values out of the model's or the quadrature's range: refused by
        # the config readers, not left to the GeometryError they would raise
        ({"experiment": "flat-energy", "radius": -1.0}, 2, "malformed config"),
        ({"experiment": "flat-energy", "dims": [2]}, 2, "malformed config"),
        ({"experiment": "expansion-sweep",
          "delta_range": {"min": 0.5, "max": 2.0, "count": 2}},
         2, "malformed config"),
        ({"experiment": "interaction-sweep", "delta": 2.0}, 2,
         "malformed config"),
        # a well-formed sweep that needs more nodes than the budget
        ({"experiment": "residual-sweep", "budget": 1000,
          "delta_range": {"min": 1e-3, "max": 1e-2, "count": 2}},
         3, "capacity exceeded"),
        # the schedule's bubble scale t * delta_eps exceeds 1, outside the
        # domain of the quadrature (a GeometryError, also a ValueError)
        ({"experiment": "reduced-limit", "t": 1e6,
          "eps_range": {"min": 1e-4, "max": 1e-3, "count": 2}},
         4, "numerical or domain failure"),
    ])
    def test_failure_classes(self, tmp_path, capsys, payload, code, message):
        cfg = _write(tmp_path, payload)
        assert run(cfg, out=str(tmp_path / "o"), quiet=True) == code
        assert f"error: {message}" in capsys.readouterr().err


class TestArtifacts:
    def test_schedule_table_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg = _write(tmp_path, {
            "experiment": "schedule-table", "n": 7, "r": 1,
            "eps_range": {"min": 1e-10, "max": 1e-4, "count": 5}})
        assert run(cfg, out=str(outdir)) == 0
        names = sorted(os.listdir(outdir))
        assert names == ["manifest.json", "schedule-table.csv", "summary.txt"]
        with open(outdir / "schedule-table.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "eps"
        assert len(rows) == 6  # header + 5 sweep points
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "schedule-table"
        assert len(manifest["config_sha256"]) == 64
        assert "schedule-table.csv" in manifest["outputs"]
        assert manifest["peak_rss_mb"] > 0.0
        summary = (outdir / "summary.txt").read_text()
        assert "[PASS]" in summary

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = _write(tmp_path, {
            "experiment": "bump-audit", "ks": [1], "seed": 1})
        run(cfg, out=str(tmp_path / "o1"), quiet=True)
        assert capsys.readouterr().out == ""
        run(cfg, out=str(tmp_path / "o2"), quiet=False)
        assert "bump-audit" in capsys.readouterr().out

    def test_csv_deterministic(self, tmp_path):
        cfg = _write(tmp_path, {
            "experiment": "bump-audit", "ks": [1, 2], "seed": 9})
        run(cfg, out=str(tmp_path / "a"), quiet=True)
        run(cfg, out=str(tmp_path / "b"), quiet=True)
        a = (tmp_path / "a" / "bump-audit.csv").read_bytes()
        b = (tmp_path / "b" / "bump-audit.csv").read_bytes()
        assert a == b

    def test_threshold_failure_still_writes_artifacts(self, tmp_path,
                                                      capsys):
        # impossible threshold: exit 1 but CSV and summary exist
        outdir = tmp_path / "fail"
        cfg = _write(tmp_path, {
            "experiment": "flat-energy", "dims": [6], "threshold": 1e-18})
        assert run(cfg, out=str(outdir), quiet=True) == 1
        assert (outdir / "flat-energy.csv").exists()
        assert "[FAIL]" in (outdir / "summary.txt").read_text()


    def test_reduced_limit_centres_rule_on_the_bubble(self, tmp_path):
        # k = 2: the bubble sits about 0.6 from xi0, where a rule centred on
        # xi0 does not resolve it
        cfg = _write(tmp_path, {
            "experiment": "reduced-limit", "k": 2, "seed": 3,
            "eps_range": {"min": 1e-4, "max": 1e-2, "count": 3}})
        assert run(cfg, out=str(tmp_path / "o"), quiet=True) == 0

    @pytest.mark.parametrize("spec", [{"kind": "round_sphere", "n": 6},
                                      {"kind": "flat_ball", "n": 6}])
    def test_expansion_sweep_on_polar_models(self, tmp_path, spec):
        cfg = _write(tmp_path, {
            "experiment": "expansion-sweep", "model": spec,
            "delta_range": {"min": 5e-3, "max": 1e-2, "count": 2}})
        assert run(cfg, out=str(tmp_path / "o"), quiet=True) == 0


class TestHelpers:
    def test_emit_csv_rejects_duplicate_columns(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(str(tmp_path / "x.csv"), ("a", "a"), [(1, 2)])

    def test_emit_csv_full_precision(self, tmp_path):
        path = str(tmp_path / "x.csv")
        emit_csv(path, ("v",), [(1.0 / 3.0,)])
        with open(path) as f:
            text = f.read()
        assert "0.33333333333333331" in text
