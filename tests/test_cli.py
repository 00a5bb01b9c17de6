"""Command-line interface: argument handling, artifacts, exit codes."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from blowup_lab import cli
from blowup_lab.cli import (_RUNNERS, EXPERIMENTS, _read_config, emit_csv,
                            main, run)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        # a misspelt radius would otherwise run at the default 100
        ({"experiment": "flat-energy", "radus": 10.0}, "'radus'",
         "budget, dims, experiment, out, radius"),
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

    @pytest.mark.parametrize("payload", [
        {"experiment": "expansion-sweep", "model": 5},
        {"experiment": "expansion-sweep", "delta_range": 5},
        {"experiment": "schedule-table", "eps_range": [1e-8, 1e-4]},
    ])
    def test_non_object_model_or_range(self, tmp_path, capsys, payload):
        outdir = tmp_path / "o"
        assert run(_write(tmp_path, payload), out=str(outdir)) == 2
        assert "error: malformed config" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_are_accepted(self, path):
        # every shipped config passes its experiment's table, unrun
        cfg = json.loads(path.read_text())
        _read_config(cfg, _RUNNERS[cfg["experiment"]][1])

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_keys_match_the_reference_table(self, experiment):
        # the keys a runner accepts are the rows of its table in
        # docs/config.md, so neither can drift from the other; a default
        # documented as one JSON literal is the table's default
        text = (Path(__file__).resolve().parents[1] / "docs"
                / "config.md").read_text()
        section = text.split(f"\n## {experiment}\n")[1].split("\n## ")[0]
        documented = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section,
                                     re.M))
        table = _RUNNERS[experiment][1]
        assert set(documented) == set(table)
        for key, cell in documented.items():
            literal = re.fullmatch(r"`([^`]*)`", cell.strip())
            if literal:
                assert json.loads(literal[1]) == table[key][0], key

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
          "delta_range": {"min": 1e-3, "max": 1e-2, "count": 4}},
         3, "capacity exceeded"),
        # the schedule's bubble scale t * delta_eps exceeds 1, outside the
        # domain of the quadrature (a GeometryError, also a ValueError)
        ({"experiment": "reduced-limit", "t": 1e6,
          "eps_range": {"min": 1e-4, "max": 1e-3, "count": 4}},
         4, "numerical or domain failure"),
        # values that ran before the config tables checked them: NaN (which
        # json.loads accepts), a boolean and non-integral counts; from here
        # on the message names the key
        ({"experiment": "flat-energy", "radius": float("nan")}, 2,
         "malformed config: 'radius'"),
        ({"experiment": "expansion-sweep", "sigma": float("nan")}, 2,
         "malformed config: 'sigma'"),
        ({"experiment": "flat-energy", "budget": True}, 2,
         "malformed config: 'budget'"),
        ({"experiment": "isolation-sweep", "k": 2.9}, 2,
         "malformed config: 'k'"),
        ({"experiment": "schedule-table", "n": 7.9}, 2,
         "malformed config: 'n'"),
        ({"experiment": "schedule-table", "eps_range": {"count": 2.5}}, 2,
         "malformed config: 'count' in 'eps_range'"),
        # compact models fix the cutoff plateau at inj/4; a flat ball's must
        # lie inside the ball
        ({"experiment": "residual-sweep", "r0": 0.5}, 2,
         "malformed config: 'r0'"),
        ({"experiment": "residual-sweep", "r0": 20.0,
          "model": {"kind": "flat_ball", "n": 7, "radius": 10.0}}, 2,
         "malformed config: 'r0'"),
        # values that failed only through a TypeError, numpy or an unpacking
        ({"experiment": "flat-energy", "dims": ["6"]}, 2,
         "malformed config: 'dims'"),
        ({"experiment": "reduced-limit", "seed": "x"}, 2,
         "malformed config: 'seed'"),
        # an empty array would pass vacuously, with no row to gate
        ({"experiment": "flat-energy", "dims": []}, 2,
         "malformed config: 'dims'"),
        ({"experiment": "bump-audit", "ks": 3}, 2, "malformed config: 'ks'"),
        # eps beyond (0, 1), a model below the dimension the reduced
        # constants need, and sweeps that give order_fit no decade or too
        # few points
        ({"experiment": "schedule-table", "eps_range": {"max": 2}}, 2,
         "malformed config: 'max' in 'eps_range'"),
        ({"experiment": "reduced-limit",
          "model": {"kind": "round_sphere", "n": 5}}, 2,
         "malformed config: 'model'"),
        ({"experiment": "residual-sweep",
          "delta_range": {"min": 2e-3, "max": 1e-2}}, 2,
         "malformed config: 'delta_range'"),
        ({"experiment": "interaction-sweep", "dist_range": {"count": 3}}, 2,
         "malformed config: 'count' in 'dist_range'"),
        # kinds that are not strings, which a dict lookup cannot hash, and
        # an out that is not a path
        ({"experiment": ["flat-energy"]}, 2, "a config is a JSON object"),
        ({"experiment": "expansion-sweep", "model": {"kind": ["flat_ball"]}},
         2, "malformed config: 'model'"),
        ({"experiment": "bump-audit", "ks": [1], "out": 5}, 2,
         "malformed config: 'out'"),
        # an out dir under a regular file (the config itself)
        ({"experiment": "bump-audit", "ks": [1], "out": "cfg.json/o"}, 2,
         "cannot write artifacts to"),
        # eps beyond the n = 6 schedule's branch maximum 1/(2e) is a domain
        # failure of the schedule, not a malformed value
        ({"experiment": "schedule-table", "n": 6, "eps_range": {"max": 0.4}},
         4, "numerical or domain failure"),
        # a count that numpy cannot allocate, and one bubble, which has no
        # separation for isolation-sweep to watch grow
        ({"experiment": "schedule-table", "eps_range": {"count": 1e300}}, 2,
         "malformed config: 'count' in 'eps_range'"),
        ({"experiment": "isolation-sweep", "k": 1}, 2,
         "malformed config: 'k'"),
        # the criteria fix the gates: a config cannot loosen or tighten one
        *(({"experiment": experiment, key: 1.0}, 2,
           f"malformed config: unknown key(s) {key!r}")
          for experiment, key in [
              ("flat-energy", "threshold"), ("expansion-sweep", "threshold"),
              ("interaction-sweep", "threshold"),
              ("reduced-limit", "threshold"),
              ("residual-sweep", "log_correction"),
              ("residual-sweep", "slope_window")]),
        # a flat ball's default r0 = 1 is checked as a given one is
        ({"experiment": "residual-sweep",
          "model": {"kind": "flat_ball", "n": 7, "radius": 1.0}}, 2,
         "malformed config: 'r0'"),
        # a separation of at most delta puts (delta/d)^2 outside the fit's
        # (0, 1); one of 2 * radius or more puts a centre outside the ball
        ({"experiment": "interaction-sweep",
          "dist_range": {"min": 1e-3, "max": 2e-2, "count": 4}}, 2,
         "malformed config: 'dist_range'"),
        ({"experiment": "interaction-sweep", "radius": 0.1}, 2,
         "malformed config: 'dist_range'"),
        # delta = 1 is outside order_fit's (0, 1): refused before any rule
        # is built
        ({"experiment": "residual-sweep",
          "delta_range": {"min": 0.1, "max": 1.0, "count": 4}}, 2,
         "malformed config: 'max' in 'delta_range'"),
    ])
    def test_failure_classes(self, tmp_path, capsys, payload, code, message):
        outdir = tmp_path / str(payload.get("out", "o"))
        cfg = _write(tmp_path, payload)
        assert run(cfg, out=str(outdir), quiet=True) == code
        assert f"error: {message}" in capsys.readouterr().err
        # exit 2 refuses before the out dir is made; 3 and 4 leave it empty
        if code == 2:
            assert not outdir.exists()

    def test_non_finite_fit_samples_exit_4(self, tmp_path, capfd,
                                           monkeypatch):
        # a NaN residual norm reaches order_fit, which refuses it before
        # LAPACK sees it: a domain failure, and nothing else on stderr
        monkeypatch.setattr(cli, "build_quadrature", lambda *a, **kw: None)
        monkeypatch.setattr(cli, "residual_norm", lambda *a: float("nan"))
        cfg = _write(tmp_path, {"experiment": "residual-sweep"})
        assert run(cfg, out=str(tmp_path / "o"), quiet=True) == 4
        assert capfd.readouterr().err == (
            "error: numerical or domain failure: xs and ys must be finite\n")


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
        # a ball of radius 10 truncates the bubble's tail: rel_dev 2.9e-3
        # fails criterion 1's 1e-6, so exit 1, but CSV and summary exist
        outdir = tmp_path / "fail"
        cfg = _write(tmp_path, {
            "experiment": "flat-energy", "dims": [6], "radius": 10})
        assert run(cfg, out=str(outdir), quiet=True) == 1
        assert (outdir / "flat-energy.csv").exists()
        assert "[FAIL]" in (outdir / "summary.txt").read_text()

    def test_reduced_limit_centres_rule_on_the_bubble(self, tmp_path):
        # k = 2: the bubble sits about 0.6 from xi0, where a rule centred on
        # xi0 does not resolve it; four points allow criterion 10's three
        # decreases
        cfg = _write(tmp_path, {
            "experiment": "reduced-limit", "k": 2, "seed": 3,
            "eps_range": {"min": 1e-4, "max": 1e-2, "count": 4}})
        assert run(cfg, out=str(tmp_path / "o"), quiet=True) == 0

    def test_reduced_limit_needs_three_decreases(self, tmp_path, capsys,
                                                 monkeypatch):
        # criterion 10 asks for three decreases, which fewer than four
        # points cannot give: the sweep is refused before any rule is built
        def no_rule(*args, **kwargs):
            raise AssertionError("a rule was built")
        monkeypatch.setattr(cli, "build_quadrature", no_rule)
        for count in (2, 3):
            outdir = tmp_path / str(count)
            cfg = _write(tmp_path, {
                "experiment": "reduced-limit",
                "eps_range": {"min": 1e-4, "max": 1e-2, "count": count}})
            assert run(cfg, out=str(outdir), quiet=True) == 2
            assert "malformed config: 'count' in 'eps_range' must be an " \
                "integer >= 4" in capsys.readouterr().err
            assert not outdir.exists()

    def test_isolation_sweep_keeps_centres_in_the_ball(self, tmp_path,
                                                       capsys):
        # on a flat ball the reference point is the origin; the scheduled
        # centres lie 0.75 mu, about 0.59, from it: inside a ball of
        # radius 1, outside one of radius 0.5
        for radius, code in ((1.0, 0), (0.5, 4)):
            cfg = _write(tmp_path, {
                "experiment": "isolation-sweep", "k": 2, "seed": 3,
                "model": {"kind": "flat_ball", "n": 6, "radius": radius}})
            assert run(cfg, out=str(tmp_path / str(radius)),
                       quiet=True) == code
        assert "outside the ball" in capsys.readouterr().err

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
