import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import liouville_workbench
from liouville_workbench import catalog, load_problem_spec, spec_hash
from liouville_workbench.cli import main


@pytest.fixture(scope="module")
def spec2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "ex2.json"
    path.write_text(json.dumps(catalog.example_spec(2).to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def spec_general_path(tmp_path_factory):
    d = catalog.example_spec(2, n_alpha=65).to_dict()
    d["general"] = {"F": {"kind": "power", "p": 2.0}}
    path = tmp_path_factory.mktemp("specs") / "gen.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture
def table_g_path(tmp_path):
    # example 2 with g = 1 + t tabulated on [0, 5]
    nodes = [0.1 * i for i in range(51)]
    d = catalog.example_spec(2).to_dict()
    d["g"] = {"kind": "table", "params": {"nodes": nodes, "values": [1.0 + t for t in nodes]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(d))
    return path


class TestClassify:
    def test_reports_blowup(self, spec2_path, tmp_path, capsys):
        rc = main(["classify", "--spec", spec2_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FiniteBlowup" in out
        written = (tmp_path / "classify.txt").read_text()
        assert "t_star: 2.372281323269e+00" in written

    def test_n_alpha_override(self, spec2_path, capsys):
        rc = main(["classify", "--spec", spec2_path, "--n-alpha", "129"])
        assert rc == 0
        assert "FiniteBlowup" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "8"])
    def test_n_alpha_override_too_small(self, n, spec2_path, capsys):
        # 0 is an override like any other, not "no override"
        rc = main(["classify", "--spec", spec2_path, "--n-alpha", n])
        assert rc == 2
        assert "n_alpha must be at least 32" in capsys.readouterr().err

    def test_beta_override_switches_family(self, spec2_path, capsys):
        rc = main(["classify", "--spec", spec2_path, "--beta", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "8.888888888889e-01" in out  # t* = 8/9 for example 4

    def test_quadrature_method(self, spec2_path, capsys):
        rc = main(["classify", "--spec", spec2_path, "--method", "quadrature"])
        assert rc == 0
        assert "FiniteBlowup" in capsys.readouterr().out


    @pytest.mark.parametrize("k", [3, 4])
    def test_quadrature_singular_examples(self, k, tmp_path, capsys):
        path = tmp_path / f"ex{k}.json"
        path.write_text(json.dumps(catalog.example_spec(k).to_dict()))
        verdicts = []
        for method in ("auto", "quadrature"):
            rc = main(["classify", "--spec", str(path), "--method", method])
            assert rc == 0
            verdicts.append(capsys.readouterr().out.splitlines()[0])
        assert verdicts[0] == verdicts[1]

    def test_table_g_at_default_t_max(self, table_g_path, tmp_path, capsys):
        # the default --t-max 10 is cut back to the last node, and
        # G = t + t^2/2 reaches 2/M0 = 8 at sqrt(17) - 1
        assert main(["classify", "--spec", str(table_g_path)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert float(line.split(":")[1]) == pytest.approx(math.sqrt(17.0) - 1.0, rel=1e-11)
        assert main(["singular-curve", "--spec", str(table_g_path), "--out", str(tmp_path)]) == 0
        assert f"earliest t = {math.sqrt(17.0) - 1.0:.6e}" in capsys.readouterr().out

    def test_provenance_records_the_horizon_used(self, table_g_path, tmp_path, capsys):
        # each writer names the horizon G was built on, 5, not the requested 10
        files = {"classify": "classify.txt", "singular-curve": "singular_curve.csv",
                 "lp-scan": "lp_scan.csv"}
        for sub, name in files.items():
            argv = [sub, "--spec", str(table_g_path), "--t-max", "10", "--out", str(tmp_path)]
            assert main(argv) == 0
            head = (tmp_path / name).read_text().splitlines()[0]
            assert " t_max=5.0" in head, (name, head)
        capsys.readouterr()

    @pytest.mark.parametrize("sub", ["classify", "lp-scan", "simulate", "verify"])
    def test_plot_only_where_scripts_are_written(self, sub, spec2_path, tmp_path, capsys):
        argv = [sub, "--out", str(tmp_path), "--plot"]
        with pytest.raises(SystemExit) as exc:
            main(argv if sub == "verify" else argv + ["--spec", spec2_path])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot" in capsys.readouterr().err


class TestSolve:
    def test_writes_field_with_hash_header(self, spec2_path, tmp_path, capsys):
        rc = main(["solve", "--spec", spec2_path, "--t-max", "1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        head = (tmp_path / "field.csv").read_text().splitlines()[0]
        assert head.startswith("# spec_hash=")
        assert "n_alpha=513" in head

    def test_byte_identical_reruns(self, spec2_path, tmp_path, capsys):
        # every file a writing subcommand leaves, the small ones on 33 alpha nodes
        small = ["--spec", spec2_path, "--n-alpha", "33"]
        runs = {"solve": ["--spec", spec2_path, "--t-max", "1.0"], "singular-curve": small,
                "lp-scan": small, "simulate": small, "reproduce-examples": []}
        for sub, argv in runs.items():
            a, b = tmp_path / sub / "a", tmp_path / sub / "b"
            assert main([sub, *argv, "--out", str(a)]) == 0
            assert main([sub, *argv, "--out", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names and names == sorted(p.name for p in b.iterdir())
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (sub, name)
        capsys.readouterr()

    def test_plot_script_alongside(self, spec2_path, tmp_path):
        rc = main(["solve", "--spec", spec2_path, "--t-max", "1.0",
                   "--out", str(tmp_path), "--plot"])
        assert rc == 0
        assert (tmp_path / "field.gp").exists()

    def test_dt_controls_rows(self, spec2_path, tmp_path, capsys):
        rc = main(["solve", "--spec", spec2_path, "--t-max", "1.0",
                   "--dt", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert "3x513" in capsys.readouterr().out

    def test_dt_grid_stops_at_the_data_horizon(self, tmp_path, capsys):
        # example 3's g = (1 - t)^-2 has data on [0, 1 - 1e-9]; the node t = 1.0
        # that arange reaches from t_max + dt/2 is dropped, the rest stay
        path = tmp_path / "ex3.json"
        path.write_text(json.dumps(catalog.example_spec(3, n_alpha=33).to_dict()))
        rc = main(["solve", "--spec", str(path), "--t-max", "1.0", "--dt", "1e-3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "1000x33" in capsys.readouterr().out
        last = (tmp_path / "field.csv").read_text().splitlines()[-1]
        assert last.split(",")[1] == "9.990000000000e-01"


class TestSingularCurve:
    def test_curve_summary(self, spec2_path, tmp_path, capsys):
        rc = main(["singular-curve", "--spec", spec2_path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "earliest t = 2.372281e+00" in out
        assert (tmp_path / "singular_curve.csv").exists()

    def test_plot_script_alongside(self, spec2_path, tmp_path):
        rc = main(["singular-curve", "--spec", spec2_path, "--out", str(tmp_path), "--plot"])
        assert rc == 0
        assert "singular_curve.csv" in (tmp_path / "singular_curve.gp").read_text()

    def test_global_data_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "ex1.json"
        path.write_text(json.dumps(catalog.example_spec(1).to_dict()))
        rc = main(["singular-curve", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestLpScan:
    def test_scan_rows(self, spec2_path, tmp_path, capsys):
        rc = main(["lp-scan", "--spec", spec2_path, "--p", "1,2,inf",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "lp_scan.csv").read_text().splitlines()
        assert lines[1] == "t,p,norm"
        assert len(lines) == 2 + 3 * 101

    def test_bad_p_is_an_error(self, spec2_path, tmp_path, capsys):
        rc = main(["lp-scan", "--spec", spec2_path, "--p", "1,zero",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_bounds_summary(self, spec_general_path, tmp_path, capsys):
        rc = main(["simulate", "--spec", spec_general_path, "--t-max", "0.5",
                   "--dt", "0.005", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted: FiniteBlowup" in out
        assert "t_star_bound: 4.000000000000e+00" in out
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "bounds.txt").exists()

    def test_identity_default_when_no_general_block(self, spec2_path, tmp_path, capsys):
        rc = main(["simulate", "--spec", spec2_path, "--t-max", "0.2",
                   "--dt", "0.01", "--n-alpha", "65", "--out", str(tmp_path)])
        assert rc == 0
        assert "stop_reason: t_end" in capsys.readouterr().out

    def test_reads_the_spec_once(self, spec_general_path, tmp_path, monkeypatch):
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["simulate", "--spec", spec_general_path, "--t-max", "0.1",
                     "--dt", "0.01", "--out", str(tmp_path)]) == 0
        assert opened.count(spec_general_path) == 1

    def test_headers_hash_F(self, spec_general_path, tmp_path):
        # bounds.txt and trajectory.csv carry the hash of the spec with its F = u^2
        assert main(["simulate", "--spec", spec_general_path, "--t-max", "0.1",
                     "--dt", "0.01", "--out", str(tmp_path)]) == 0
        spec = load_problem_spec(spec_general_path)
        want = f"# spec_hash={spec_hash(spec)} "
        assert spec.F.kind == "power" and spec_hash(spec) != spec_hash(catalog.example_spec(2, n_alpha=65))
        for name in ("bounds.txt", "trajectory.csv"):
            assert (tmp_path / name).read_text().startswith(want)


class TestLinearSubcommandsRefuseOtherF:
    @pytest.mark.parametrize("F", [{"kind": "power", "p": 2.0},
                                   {"kind": "table", "nodes": [0.5, 1.0, 2.0], "values": [0.5, 1.0, 2.0],
                                    "c": 1.0, "d": 1.0}], ids=["power", "table"])
    @pytest.mark.parametrize("command", ["classify", "solve", "singular-curve", "lp-scan"])
    def test_exit_2_before_writing(self, command, F, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**catalog.example_spec(2, n_alpha=65).to_dict(), "general": {"F": F}}))
        assert main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command} is for F(u) = u only; the spec's F is {F['kind']}\n"
        assert not (tmp_path / "out").exists()


class TestVerify:
    def test_battery_all_pass(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 7
        assert all(l.startswith("PASS") for l in lines)


class TestReproduceExamples:
    def test_all_four(self, tmp_path, capsys):
        rc = main(["reproduce-examples", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "example 1: Global" in out
        assert "example 4: FiniteBlowup" in out
        for k in (1, 2, 3, 4):
            assert (tmp_path / f"example{k}_report.txt").exists()
            assert (tmp_path / f"example{k}_field.csv").exists()
        assert (tmp_path / "example4_final_profile.csv").exists()

    def test_every_csv_starts_with_the_spec_hash(self, tmp_path, capsys):
        assert main(["reproduce-examples", "--out", str(tmp_path)]) == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        assert "example4_final_profile.csv" in [p.name for p in csvs]
        for path in csvs:
            assert path.read_text().startswith("# spec_hash="), path.name

    def test_plot_scripts(self, tmp_path, capsys):
        assert main(["reproduce-examples", "--out", str(tmp_path), "--plot"]) == 0
        for k in (1, 2, 3, 4):
            script = (tmp_path / f"example{k}_field.gp").read_text()
            assert f'splot "example{k}_field.csv"' in script


class TestErrors:
    def test_missing_spec_file(self, capsys):
        rc = main(["classify", "--spec", "/nonexistent/spec.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"g": {"kind": "trigonometric", "params": {"terms": [[1.0]]}}},
        {"g": {"kind": "trigonometric", "params": {"offset": 1, "terms": [[0.5, 1, 0, 7]]}}},
        {"g": {"kind": "trigonometric", "params": {"offset": 1, "terms": ["12"]}}},   # not [1, 2]
        {"g": {"kind": "trigonometric", "params": {"terms": 5}}},
        {"g": {"kind": "polynomial", "params": [1, 2]}},
        {"g": {"kind": "polynomial", "params": {"coeffs": "12"}}},   # not 1 + 2t
        {"g": {"kind": "table", "params": {"nodes": [0.0], "values": [1.0]}}},
        {"n_alpha": None},
        None,   # a top-level list
    ], ids=["short-term", "long-term", "string-term", "int-terms", "list-params", "string-coeffs", "one-node-table",
            "null-n-alpha", "top-level-list"])
    def test_malformed_spec_is_an_error(self, edit, tmp_path, capsys):
        d = catalog.example_spec(2, n_alpha=65).to_dict()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([d] if edit is None else {**d, **edit}))
        rc = main(["classify", "--spec", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "t_max" not in err

    @pytest.mark.parametrize("edit, message", [
        ({"g": {"kind": "singular_boundary", "params": {"beta": math.nan}}},
         "beta must be positive and finite, got nan"),
        ({"g": {"kind": "singular_boundary", "params": {"beta": math.inf}}},
         "beta must be positive and finite, got inf"),
        ({"g": {"kind": "singular_boundary", "params": {"beta": 1.0, "t_b": math.nan}}},
         "t_b must be positive and finite, got nan"),
        ({"g": {"kind": "singular_boundary", "params": {"beta": 1.0, "t_b": math.inf}}},
         "t_b must be positive and finite, got inf"),
        ({"n_alpha": 64.7}, "n_alpha must be an integer, got 64.7"),
        ({"n_alpha": math.inf}, "n_alpha must be an integer, got inf"),
    ], ids=["beta-nan", "beta-inf", "t_b-nan", "t_b-inf", "fractional-n-alpha", "infinite-n-alpha"])
    def test_bad_number_in_spec_is_named(self, edit, message, tmp_path, capsys):
        # json writes and reads NaN and Infinity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**catalog.example_spec(2, n_alpha=65).to_dict(), **edit}))
        assert main(["classify", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_u0_that_differs_at_the_ends_is_an_error(self, tmp_path, capsys):
        d = catalog.example_spec(2, n_alpha=65).to_dict()
        d["f"] = {"kind": "trigonometric", "params": {"terms": [[1.0, 1.0, math.pi / 2]]}}
        d["u0"] = {"kind": "polynomial", "params": {"coeffs": [1.0, 0.5]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["classify", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "u0(1) = 1.5 must equal u0(0) = 1" in err

    def test_nan_beta_option_is_an_error(self, spec2_path, capsys):
        assert main(["classify", "--spec", spec2_path, "--beta", "nan"]) == 2
        assert "beta must be positive and finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"g": {"kind": "table", "params": {"nodes": [0.0, 2.0, 1.0], "values": [1.0, 2.0, 3.0]}}},
         "g: table nodes must be strictly increasing"),
        ({"g": {"kind": "table", "params": {"nodes": [0.0, 1.0], "values": [1.0, 2.0, 3.0]}}},
         "g: table nodes and values must be 1-d arrays of equal length"),
        ({"general": {"F": {"kind": "table", "nodes": [0.5, 2.0, 1.0], "values": [0.5, 1.0, 2.0],
                            "c": 1.0, "d": 1.0}}}, "F: table nodes must be strictly increasing"),
        ({"general": {"F": {"kind": "table", "nodes": [0.5], "values": [0.5], "c": 1.0, "d": 1.0}}},
         "F: a table needs at least two nodes"),
        ({"general": {"F": {"kind": "table", "nodes": [0.5, 1.0], "values": [0.5, 1.0, 2.0],
                            "c": 1.0, "d": 1.0}}}, "F: table nodes and values must be 1-d arrays"),
        ({"g": {"kind": "table", "params": {"nodes": [0.0, 1.0, 2.0], "values": [1.0, math.nan, 3.0]}}},
         "g: table nodes and values must be finite"),
        # the NaN sits at u = 1e4, outside the [1e-3, 1e3] window the envelope check reads
        ({"general": {"F": {"kind": "table", "nodes": [1e-3, 1.0, 1e4], "values": [1e-3, 1.0, math.nan],
                            "c": 1.0, "d": 1.0}}}, "F: table nodes and values must be finite"),
        ({"f": {"kind": "table", "params": {"nodes": [0.0, 0.5, 1.0], "values": [1.0, math.nan, -1.0]}}},
         "f: table nodes and values must be finite"),
        ({"u0": {"kind": "table", "params": {"nodes": [0.0, 0.5, 1.0], "values": [1.0, math.inf, 1.0]}}},
         "u0: table nodes and values must be finite"),
    ], ids=["unsorted-g", "ragged-g", "unsorted-F", "one-node-F", "ragged-F", "nan-g", "nan-F",
            "nan-f", "inf-u0"])
    def test_malformed_table_names_the_table(self, edit, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**catalog.example_spec(2, n_alpha=65).to_dict(), **edit}))
        assert main(["simulate", "--spec", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("p", [0, -1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_power_F_outside_zero_to_inf_is_an_error_at_load(self, p, tmp_path, capsys):
        general = {"F": {"kind": "power", "p": p}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**catalog.example_spec(2, n_alpha=65).to_dict(), "general": general}))
        assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: F: power p must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("general", [
        {"F": {"kind": "power"}},
        "x",
        {"F": {"kind": "table", "nodes": [0.5, 1.0, 2.0], "values": [0.5, 1.0, 2.0]}},
        {"F": {"kind": "table", "nodes": 5, "values": 5, "c": 1.0, "d": 1.0}},
        # falsy values that are not objects: only a missing "general" is F = u
        [], 0, False, "", None,
    ], ids=["power-without-p", "string-block", "table-without-c-d", "int-table",
            "empty-list", "zero", "false", "empty-string", "null"])
    def test_malformed_general_block_is_an_error(self, general, tmp_path, capsys):
        d = {**catalog.example_spec(2, n_alpha=65).to_dict(), "general": general}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        for command in ("simulate", "classify"):
            rc = main([command, "--spec", str(path), "--out", str(tmp_path / "out")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: F: ")
            if not isinstance(general, dict):
                assert err == "error: F: the spec's general block and its F must be objects\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["lp-scan", "--p", "1,nan"], "p must be in [1, inf], got nan"),
        (["lp-scan", "--p", "nan"], "p must be in [1, inf], got nan"),
        (["lp-scan", "--p", "0.5"], "p must be in [1, inf], got 0.5"),
        (["solve", "--dt", "0"], "--dt must be positive"),
        (["solve", "--dt", "-0.1"], "--dt must be positive"),
        (["solve", "--dt", "nan"], "--dt must be positive"),
        (["solve", "--dt", "inf"], "--dt must be positive and finite"),
        (["classify", "--t-max", "nan"], "t_max must be positive and finite, got nan"),
        (["classify", "--t-max", "inf"], "t_max must be positive and finite, got inf"),
        (["simulate", "--dt", "nan"], "must be positive, got nan"),
        (["simulate", "--t-max", "nan"], "must be positive, got 0.001, nan"),
        (["simulate", "--cap", "nan"], "must be positive, got 0.001, 1.0, nan"),
    ], ids=["lp-nan", "lp-only-nan", "lp-half", "solve-dt-0", "solve-dt-negative", "solve-dt-nan", "solve-dt-inf",
            "classify-t-max-nan", "classify-t-max-inf", "simulate-dt-nan", "simulate-t-max-nan",
            "simulate-cap-nan"])
    def test_nan_and_nonpositive_numbers_are_errors(self, argv, message, spec2_path,
                                                    tmp_path, capsys):
        # the numbers are checked before --out is made: an error leaves no directory
        rc = main(argv + ["--spec", spec2_path, "--n-alpha", "65", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestImports:
    def test_no_scipy_or_mpmath(self, spec2_path, tmp_path):
        # a bare import loads neither scipy nor mpmath, and the CLI runs with
        # both blocked
        script = textwrap.dedent(f"""
            import sys
            import liouville_workbench
            loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
            assert not loaded, loaded
            sys.modules["scipy"] = sys.modules["mpmath"] = None
            from liouville_workbench.cli import main
            assert main(["classify", "--spec", {spec2_path!r}]) == 0
            assert main(["simulate", "--spec", {spec2_path!r}, "--out", {str(tmp_path)!r}]) == 0
            assert main(["verify"]) == 0
        """)
        src = str(Path(liouville_workbench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
