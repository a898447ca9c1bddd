import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import liouville_workbench
from liouville_workbench import catalog
from liouville_workbench.cli import main


@pytest.fixture(scope="module")
def spec2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "ex2.json"
    path.write_text(json.dumps(catalog.example_spec_dict(2)))
    return str(path)


@pytest.fixture(scope="module")
def spec_general_path(tmp_path_factory):
    d = catalog.example_spec_dict(2, n_alpha=65)
    d["general"] = {"F": {"kind": "power", "p": 2.0}}
    path = tmp_path_factory.mktemp("specs") / "gen.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.fixture
def table_g_path(tmp_path):
    # example 2 with g = 1 + t tabulated on [0, 5]
    nodes = [0.1 * i for i in range(51)]
    d = catalog.example_spec_dict(2)
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
        path.write_text(json.dumps(catalog.example_spec_dict(k)))
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

    def test_byte_identical_reruns(self, spec2_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--spec", spec2_path, "--t-max", "1.0", "--out", str(a)]) == 0
        assert main(["solve", "--spec", spec2_path, "--t-max", "1.0", "--out", str(b)]) == 0
        assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()

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
        path.write_text(json.dumps(catalog.example_spec_dict(1)))
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


class TestImports:
    def test_no_scipy_or_mpmath(self, spec2_path, tmp_path):
        # a bare import loads neither scipy nor mpmath, and the CLI runs with
        # scipy blocked
        script = textwrap.dedent(f"""
            import sys
            import liouville_workbench
            loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
            assert not loaded, loaded
            sys.modules["scipy"] = None
            from liouville_workbench.cli import main
            assert main(["classify", "--spec", {spec2_path!r}]) == 0
            assert main(["simulate", "--spec", {spec2_path!r}, "--out", {str(tmp_path)!r}]) == 0
        """)
        src = str(Path(liouville_workbench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
