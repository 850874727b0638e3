"""End-to-end tests of the command-line interface.

Each command runs in-process through ``main(argv)`` on small problem sizes;
outputs land in per-session temporary directories.  Checks cover the files
written, the manifest hash cross-references, stdout contracts, and the
documented exit codes (0 ok, 2 usage, 3 non-convergence or too coarse a
lattice, 4 I/O, 5 schema).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lastzero import BoundaryPair, montecarlo
from lastzero.cli import (
    EXIT_IO,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    """One small solve shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli_solve")
    rc = main(["solve", "--mu", "0.4", "--horizon", "1.0",
               "--n-steps", "40", "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestSolve:
    def test_outputs_and_manifest(self, solved_dir, capsys):
        csv_path = solved_dir / "boundaries.csv"
        json_path = solved_dir / "boundaries.json"
        man_path = solved_dir / "solve.manifest.json"
        assert csv_path.exists() and json_path.exists() and man_path.exists()

        manifest = json.loads(man_path.read_text())
        h = manifest["manifest_hash"]
        assert manifest["command"] == "solve"
        assert manifest["spec"] == {"mu": 0.4, "T": 1.0}
        assert manifest["outputs"] == ["boundaries.csv", "boundaries.json"]
        assert "wall_time_s" in manifest and "timestamp" in manifest

        # both artifacts point back at the manifest
        first_line = csv_path.read_text().splitlines()[0]
        assert first_line == f"# manifest_hash={h}"
        doc = json.loads(json_path.read_text())
        assert doc["manifest_hash"] == h

    def test_csv_rows_span_horizon(self, solved_dir):
        lines = solved_dir.joinpath("boundaries.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[:3] == ["t", "b_minus", "b_plus"]
        first = lines[2].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0
        assert float(last[0]) == 1.0
        assert float(last[1]) == 0.0 and float(last[2]) == 0.0

    def test_json_loadable(self, solved_dir):
        bp, _ = BoundaryPair.load_json(solved_dir / "boundaries.json")
        assert bp.spec.mu == 0.4
        assert bp.grid.size == 41

    def test_negative_horizon_usage_error(self, capsys):
        rc = main(["solve", "--mu", "0.0", "--horizon", "-1.0"])
        assert rc == EXIT_USAGE
        assert ("error: horizon T must be positive and finite, got -1.0"
                in capsys.readouterr().err)

    def test_nan_tolerance_usage_error(self, tmp_path, capsys):
        # NaN passes a "<= 0" test; it must be refused before any solve
        assert main(["solve", "--mu", "0", "--horizon", "1", "--n-steps",
                     "20", "--tol", "nan", "--out",
                     str(tmp_path / "out")]) == EXIT_USAGE
        assert ("tol_res must be positive and finite, got nan"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_infinite_tolerance_usage_error(self, tmp_path, capsys):
        # inf would switch off the residual stop test and write Infinity,
        # which is not JSON, to boundaries.json and manifest.json
        assert main(["solve", "--mu", "0.5", "--horizon", "1", "--n-steps",
                     "20", "--tol", "inf", "--out",
                     str(tmp_path / "out")]) == EXIT_USAGE
        assert "tol_res must be positive and finite" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_failure_depends_on_nu_only(self, tmp_path, capsys):
        # (-50, 1) and (-5, 100) share nu = mu*sqrt(T) = -50: the same
        # normalized problem fails with the same normalized clamp
        errors = []
        for mu, horizon in (("-50", "1"), ("-5", "100")):
            rc = main(["solve", "--mu", mu, "--horizon", horizon,
                       "--n-steps", "50", "--out", str(tmp_path)])
            assert rc == EXIT_NONCONVERGENCE
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "clamp of 5.647e-05" in errors[0]
        assert "nu = mu*sqrt(T) = -50 with n_steps = 50" in errors[0]

    def test_unbracketable_h_curves_nonconvergence(self, tmp_path, capsys):
        # at nu = 1e60 the zero curves of H cannot be bracketed: a
        # documented failure naming nu and n_steps, not a traceback
        rc = main(["solve", "--mu", "1e60", "--horizon", "1", "--n-steps",
                   "20", "--out", str(tmp_path / "out")])
        assert rc == EXIT_NONCONVERGENCE
        err = capsys.readouterr().err
        assert "nu = mu*sqrt(T) = 1e+60 with n_steps = 20" in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_nu_usage_error(self, tmp_path, capsys):
        # a finite mu and T whose nu = mu*sqrt(T) overflows are refused as
        # such, without a floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--mu", "1e308", "--horizon", "1e10",
                       "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "nu = mu*sqrt(T) overflows" in err
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


class TestValue:
    def test_prints_values(self, solved_dir, capsys):
        rc = main(["value", "--boundaries",
                   str(solved_dir / "boundaries.json"), "--grid", "8x11"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "V(0,0) = " in out
        assert "V* = " in out
        v00 = float(out.split("V(0,0) = ")[1].splitlines()[0])
        vstar = float(out.split("V* = ")[1].splitlines()[0])
        assert -1.0 < v00 < 0.0
        assert 0.0 < vstar < 1.0

    def test_writes_surface(self, solved_dir, tmp_path, capsys):
        out = tmp_path / "val"
        rc = main(["value", "--boundaries",
                   str(solved_dir / "boundaries.json"),
                   "--grid", "6x9", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        surface = (out / "surface.csv").read_text().splitlines()
        manifest = json.loads((out / "value.manifest.json").read_text())
        assert surface[0] == f"# manifest_hash={manifest['manifest_hash']}"
        assert surface[2] == "t,x,V"
        assert len(surface) == 3 + 6 * 9

    def test_value_into_solve_directory_keeps_both_manifests(self, tmp_path,
                                                             capsys):
        # the README's sequence: solve, then value --out the same directory
        out = tmp_path / "out_mu1"
        assert main(["solve", "--mu", "1.0", "--horizon", "1.0",
                     "--n-steps", "20", "--out", str(out)]) == EXIT_OK
        assert main(["value", "--boundaries", str(out / "boundaries.json"),
                     "--grid", "4x5", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        solve = json.loads((out / "solve.manifest.json").read_text())
        value = json.loads((out / "value.manifest.json").read_text())
        assert (solve["command"], value["command"]) == ("solve", "value")
        assert not (out / "manifest.json").exists()
        csv_head = (out / "boundaries.csv").read_text().splitlines()[0]
        assert csv_head == f"# manifest_hash={solve['manifest_hash']}"
        surface_head = (out / "surface.csv").read_text().splitlines()[0]
        assert surface_head == f"# manifest_hash={value['manifest_hash']}"

    def test_bad_grid_usage_error(self, solved_dir, capsys):
        assert main(["value", "--boundaries",
                     str(solved_dir / "boundaries.json"),
                     "--grid", "banana"]) == EXIT_USAGE
        assert "--grid must look like" in capsys.readouterr().err

    def test_missing_file_io_error(self, tmp_path, capsys):
        rc = main(["value", "--boundaries", str(tmp_path / "nope.json")])
        assert rc == EXIT_IO

    def test_wrong_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "lastzero.surface.v1"}))
        rc = main(["value", "--boundaries", str(bad)])
        assert rc == EXIT_SCHEMA

    def test_non_utf8_file_schema_error(self, tmp_path, capsys):
        # undecodable bytes are a malformed input file, not a usage error
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe\x00\x81garbage")
        rc = main(["value", "--boundaries", str(bad)])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    def _rewritten(self, solved_dir, tmp_path, edit):
        doc = json.loads((solved_dir / "boundaries.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    def test_missing_key_schema_error(self, solved_dir, tmp_path, capsys):
        path = self._rewritten(solved_dir, tmp_path,
                               lambda doc: doc.pop("b_plus"))
        rc = main(["value", "--boundaries", str(path), "--grid", "4x5"])
        assert rc == EXIT_SCHEMA
        assert "b_plus" in capsys.readouterr().err

    def test_nan_boundary_schema_error(self, solved_dir, tmp_path, capsys):
        def poison(doc):
            doc["b_minus"][3] = float("nan")

        path = self._rewritten(solved_dir, tmp_path, poison)
        rc = main(["value", "--boundaries", str(path), "--grid", "4x5"])
        assert rc == EXIT_SCHEMA
        assert "finite" in capsys.readouterr().err

    def test_grid_past_a_tiny_horizon_schema_error(self, solved_dir, tmp_path,
                                                   capsys):
        # at T = 1e-14 a grid ending at 2T is 1e-14 past T: within an
        # absolute 1e-12, but a wrong pair, since b±(T) is then not 0
        def shrink(doc):
            T = 1e-14
            doc["spec"]["T"] = T
            doc["grid"] = [2.0 * T * t for t in doc["grid"]]
            doc["b_minus"] = [1e-7 * b for b in doc["b_minus"]]
            doc["b_plus"] = [1e-7 * b for b in doc["b_plus"]]

        path = self._rewritten(solved_dir, tmp_path, shrink)
        rc = main(["value", "--boundaries", str(path), "--grid", "4x5"])
        assert rc == EXIT_SCHEMA
        assert "span" in capsys.readouterr().err


class TestSimulate:
    def _run(self, solved_dir, capsys, *extra):
        rc = main(["simulate", "--boundaries",
                   str(solved_dir / "boundaries.json"),
                   "--paths", "400", "--steps", "60", "--seed", "9",
                   *extra])
        assert rc == EXIT_OK
        return capsys.readouterr().out.strip().splitlines()[-1]

    def test_json_line_contract(self, solved_dir, capsys):
        line = self._run(solved_dir, capsys, "--policy", "fixed_time:0.5")
        doc = json.loads(line)
        assert doc["policy"] == "fixed_time:0.5"
        assert doc["n_paths"] == 400
        assert doc["seed"] == 9
        assert 0.0 <= doc["estimate"] <= 1.0
        assert doc["std_error"] > 0.0
        assert len(doc["manifest_hash"]) == 64

    def test_reproducible_across_runs(self, solved_dir, capsys):
        a = self._run(solved_dir, capsys, "--policy", "optimal")
        b = self._run(solved_dir, capsys, "--policy", "optimal")
        assert a == b

    def test_out_file_matches_stdout(self, solved_dir, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        line = self._run(solved_dir, capsys, "--policy", "sqrt_rule:0.85",
                         "--out", str(report))
        assert report.read_text() == line + "\n"
        sibling = json.loads((tmp_path / "r.jsonl.manifest.json").read_text())
        assert sibling["manifest_hash"] == json.loads(line)["manifest_hash"]

    def test_unknown_policy_usage_error(self, solved_dir, capsys):
        assert main(["simulate", "--boundaries",
                     str(solved_dir / "boundaries.json"), "--paths", "10",
                     "--steps", "10", "--policy", "teleport"]) == EXIT_USAGE
        assert "teleport" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", [
        "scaled_optimal:inf", "scaled_optimal:nan", "sqrt_rule:inf",
        "sqrt_rule:nan", "fixed_time:nan", "fixed_time:-inf"])
    def test_non_finite_policy_usage_error(self, solved_dir, capsys,
                                           monkeypatch, policy):
        # inf * 0 and NaN comparisons leave the terminal column without a
        # stop, which scored such rules as stopping at t = 0; they must be
        # refused before any path is drawn
        drawn = []
        monkeypatch.setattr(montecarlo, "_draw_chunk",
                            lambda *a: drawn.append(a))
        assert main(["simulate", "--boundaries",
                     str(solved_dir / "boundaries.json"), "--paths", "50",
                     "--steps", "20", "--policy", policy]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert drawn == []

    def test_negative_paths_usage_error(self, solved_dir, tmp_path, capsys):
        # refused before the boundary file is read, so a missing one too
        for path in (solved_dir / "boundaries.json", tmp_path / "nope.json"):
            assert main(["simulate", "--boundaries", str(path),
                         "--paths", "-3"]) == EXIT_USAGE
            assert "n_paths must be an integer >= 1, got -3" in (
                capsys.readouterr().err)

    def test_oversized_dump_usage_error(self, solved_dir, capsys):
        assert main(["simulate", "--boundaries",
                     str(solved_dir / "boundaries.json"), "--paths", "20000",
                     "--steps", "10", "--dump", "x.csv"]) == EXIT_USAGE
        assert "--dump" in capsys.readouterr().err

    def test_dump_per_path_csv(self, solved_dir, tmp_path, capsys):
        dump = tmp_path / "paths.csv"
        line = self._run(solved_dir, capsys, "--policy", "optimal",
                         "--dump", str(dump))
        doc = json.loads(line)
        lines = dump.read_text().splitlines()
        assert lines[0] == f"# manifest_hash={doc['manifest_hash']}"
        assert lines[1] == "path_id,g,tau,abs_error"
        assert len(lines) == 2 + 400
        errs = np.genfromtxt(dump, delimiter=",", names=True,
                             skip_header=1)["abs_error"]
        # the dump rows are the exact paths behind the printed estimate
        np.testing.assert_allclose(errs.mean(), doc["estimate"], rtol=1e-12)
        sibling = json.loads(
            (tmp_path / "paths.csv.manifest.json").read_text())
        assert sibling["manifest_hash"] == doc["manifest_hash"]
        assert "paths.csv" in sibling["outputs"]

    def test_dump_draws_each_path_once(self, solved_dir, tmp_path, capsys,
                                       monkeypatch):
        # scoring and dumping share one pass over the ensemble
        drawn = []
        draw = montecarlo._draw_chunk

        def counting_draw(spec, cfg, start, n, *scratch):
            drawn.append(n)
            return draw(spec, cfg, start, n, *scratch)

        monkeypatch.setattr(montecarlo, "_draw_chunk", counting_draw)
        self._run(solved_dir, capsys, "--dump", str(tmp_path / "p.csv"))
        assert sum(drawn) == 400


class TestCompare:
    def test_report_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--mu", "0.0", "--horizon", "1.0",
                   "--n-steps", "30", "--lattice", "200x201",
                   "--out", str(out)])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(line)
        assert set(doc) >= {"sup_minus", "sup_plus", "sup_norm", "l2_norm",
                            "spec"}
        assert doc["sup_norm"] < 0.1
        written = json.loads((out / "compare.json").read_text())
        manifest = json.loads((out / "compare.manifest.json").read_text())
        assert written["manifest_hash"] == manifest["manifest_hash"]
        assert written["sup_norm"] == doc["sup_norm"]


    def test_coarse_lattice_exit_code(self, tmp_path, capsys):
        # a lattice too coarse to resolve the boundaries is a documented
        # failure (exit 3), not a traceback
        rc = main(["compare", "--mu", "0", "--horizon", "1",
                   "--n-steps", "20", "--lattice", "2x2"])
        assert rc == EXIT_NONCONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lattice" in err

    def test_bad_lattice_usage_error(self, capsys):
        # the error names the flag it came from, not --grid
        assert main(["compare", "--mu", "0", "--horizon", "1",
                     "--lattice", "banana"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: --lattice must look like 100x200, got 'banana'" in err
        assert "--grid" not in err


class TestPlot:
    def test_svg_structure(self, solved_dir, tmp_path, capsys):
        # second drift so the plot carries two curve pairs and a legend
        zero_dir = tmp_path / "zero"
        rc = main(["solve", "--mu", "0.0", "--horizon", "1.0",
                   "--n-steps", "40", "--out", str(zero_dir)])
        assert rc == EXIT_OK
        svg_path = tmp_path / "curves.svg"
        rc = main(["plot", "--boundaries",
                   str(solved_dir / "boundaries.json"),
                   str(zero_dir / "boundaries.json"),
                   "--out", str(svg_path)])
        assert rc == EXIT_OK
        capsys.readouterr()
        svg = svg_path.read_text()
        assert svg.startswith("<?xml") or svg.lstrip().startswith("<svg")
        assert svg.count("<polyline") == 4          # two sides per drift
        assert 'data-mu="0.4"' in svg and 'data-mu="0"' in svg
        assert svg.count('class="legend"') == 2
        # zero-drift curves dashed, others solid
        for element in svg.split(">"):
            if "<polyline" not in element:
                continue
            if 'data-mu="0"' in element:
                assert "stroke-dasharray" in element
            else:
                assert "stroke-dasharray" not in element
        # every curve ends at (T, 0): the boundaries meet at the horizon
        for element in svg.split(">"):
            if "<polyline" in element:
                assert 'data-t-end="1"' in element
                assert 'data-b-end="0"' in element
        manifest = json.loads((tmp_path / "curves.svg.manifest.json")
                              .read_text())
        assert manifest["command"] == "plot"
        assert manifest["manifest_hash"] in svg

    def test_manifest_names_every_horizon(self, solved_dir, tmp_path,
                                          capsys):
        # a T = 1 and a T = 2 file: the manifest must not claim T = 1 only
        two_dir = tmp_path / "two"
        rc = main(["solve", "--mu", "0.4", "--horizon", "2.0",
                   "--n-steps", "40", "--out", str(two_dir)])
        assert rc == EXIT_OK
        one = str(solved_dir / "boundaries.json")
        manifests = {}
        for name, files in (("single", [one, one]),
                            ("mixed", [one, str(two_dir / "boundaries.json")])):
            svg_path = tmp_path / name / "boundaries.svg"
            svg_path.parent.mkdir()
            rc = main(["plot", "--boundaries", *files,
                       "--out", str(svg_path)])
            assert rc == EXIT_OK
            manifests[name] = json.loads(
                (svg_path.parent / "boundaries.svg.manifest.json").read_text())
        capsys.readouterr()
        assert manifests["mixed"]["spec"] == {"mus": [0.4, 0.4],
                                              "Ts": [1.0, 2.0]}
        assert manifests["single"]["spec"] == {"mus": [0.4, 0.4],
                                               "Ts": [1.0, 1.0]}
        assert (manifests["mixed"]["manifest_hash"]
                != manifests["single"]["manifest_hash"])

    def test_empty_boundary_list_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--out", "x.svg"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--boundaries", "--out", "x.svg"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unwritable_target_io_error(self, solved_dir, capsys):
        rc = main(["plot", "--boundaries",
                   str(solved_dir / "boundaries.json"),
                   "--out", "/nonexistent/dir/a.svg"])
        assert rc == EXIT_IO


class TestInputHashes:
    """A consumer's manifest hashes each input file's content, not only its
    name, and records the ``manifest_hash`` that the file carries."""

    def test_same_name_different_content(self, tmp_path, capsys):
        # two solves of one problem at 20 and 40 steps, both written as
        # boundaries.json: each consumer's hash must tell them apart
        solves, hashes = [], {}
        for n_steps in ("20", "40"):
            out = tmp_path / f"m{n_steps}"
            assert main(["solve", "--mu", "1", "--horizon", "1",
                         "--n-steps", n_steps, "--out", str(out)]) == EXIT_OK
            solves.append(out)
        for out in solves:
            path = str(out / "boundaries.json")
            assert main(["value", "--boundaries", path, "--grid", "5x7",
                         "--out", str(out)]) == EXIT_OK
            assert main(["simulate", "--boundaries", path, "--paths", "1000",
                         "--steps", "50"]) == EXIT_OK
            simulated = json.loads(
                capsys.readouterr().out.strip().splitlines()[-1])
            assert main(["plot", "--boundaries", path,
                         "--out", str(out / "b.svg")]) == EXIT_OK
            value = json.loads((out / "value.manifest.json").read_text())
            plot = json.loads((out / "b.svg.manifest.json").read_text())
            solve = json.loads((out / "solve.manifest.json").read_text())
            # the chain resolves: each consumer names the solve behind it
            record = {"name": "boundaries.json",
                      "sha256": hashlib.sha256(
                          (out / "boundaries.json").read_bytes()).hexdigest(),
                      "manifest_hash": solve["manifest_hash"]}
            assert value["config"]["boundaries"] == record
            assert plot["config"]["inputs"] == [record]
            hashes[out.name] = (value["manifest_hash"],
                                simulated["manifest_hash"],
                                plot["manifest_hash"],
                                (out / "surface.csv").read_text(),
                                simulated["estimate"])
        first, second = hashes.values()
        # the outputs differ, and so do all three commands' hashes
        assert first[3] != second[3] and first[4] != second[4]
        assert all(a != b for a, b in zip(first[:3], second[:3]))


class TestProcessExitCodes:
    """The exit code a shell sees, from a real ``python -m lastzero.cli``."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("case, code", [
        ("ok", EXIT_OK), ("usage", EXIT_USAGE),
        ("coarse_lattice", EXIT_NONCONVERGENCE), ("missing_file", EXIT_IO),
        ("schema", EXIT_SCHEMA)])
    def test_exit_code(self, tmp_path, case, code):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "lastzero.surface.v1"}))
        argv = {
            "ok": ["solve", "--mu", "0.4", "--horizon", "1", "--n-steps",
                   "10", "--out", str(tmp_path / "out")],
            "usage": ["solve", "--mu", "0", "--horizon", "-1"],
            "coarse_lattice": ["compare", "--mu", "0", "--horizon", "1",
                               "--n-steps", "20", "--lattice", "2x2"],
            "missing_file": ["value", "--boundaries",
                             str(tmp_path / "nope.json")],
            "schema": ["value", "--boundaries", str(bad)],
        }[case]
        proc = self._run(argv)
        assert proc.returncode == code, proc.stderr
        assert ("error:" in proc.stderr) == (code != EXIT_OK)

    @pytest.mark.parametrize("mu, horizon", [("1e30", "1"),
                                             ("1e200", "1e200")])
    def test_extreme_drift_stalls_with_one_error_line(self, tmp_path, mu,
                                                      horizon):
        # H overflows far out: no numpy warning may reach stderr, only the
        # non-convergence error naming its cause, nu and n_steps
        proc = self._run(["solve", "--mu", mu, "--horizon", horizon,
                          "--n-steps", "20", "--out", str(tmp_path / "o")])
        assert proc.returncode == EXIT_NONCONVERGENCE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: boundary solve stalled")
        assert any(cause in lines[0] for cause in (
            "singular Jacobian", "non-finite residual", "non-finite Jacobian"))
        assert "nu = mu*sqrt(T) = " in lines[0]
        assert "n_steps = 20" in lines[0]

    def _run(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "lastzero.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=env)


class TestConsoleScript:
    def test_entry_point_help(self):
        exe = shutil.which("lastzero")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
        assert "solve" in proc.stdout
        assert "simulate" in proc.stdout
