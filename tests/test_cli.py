import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergerconn

from bergerconn import cli, config, einstein, families, nomizu, spaces
from bergerconn.cli import (
    EXPECTED_TABLE,
    compute_dims,
    compute_table,
    main,
    parse_eps,
)
from conftest import gapless_torsion_space


class TestParseEps:
    def test_decimal(self):
        assert parse_eps("-1.5") == -1.5

    def test_rational(self):
        assert parse_eps("-3/2") == -1.5
        assert parse_eps("5/4") == 1.25

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_eps("abc")

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e400/3"])
    def test_overflow(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_eps(text)

    def test_overflow_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--eps=1e400"])
        assert exc.value.code == 2
        assert "invalid eps '1e400'" in capsys.readouterr().err


class TestDims:
    def test_compute_dims_n2(self):
        doc = compute_dims(2)
        assert doc["invariant"] == 13
        assert doc["metric"] == [7]
        assert doc["skew_directions"] == [3]
        assert doc["stable_under_eps"]

    def test_cmd_exit_zero(self, capsys):
        assert main(["dims", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "13" in out and "7" in out

    def test_json_format(self, capsys):
        assert main(["dims", "--n", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["invariant"] == 27

    def test_checked_beyond_n6(self, monkeypatch):
        assert main(["dims", "--n", "7"]) == 0
        inv = spaces.invariant_bilinear_space(7)
        short = spaces.LinearSpace(inv.maps[:-1])
        monkeypatch.setattr(spaces, "invariant_bilinear_space", lambda n: short)
        assert main(["dims", "--n", "7"]) == 1


class TestVerify:
    @pytest.mark.parametrize("args", [["--n", "1"], ["--n", "2", "--eps=-3/2"],
                                      ["--n", "3", "--eps", "0.5"]])
    def test_passes(self, args, capsys):
        assert main(["verify"] + args) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    @pytest.mark.parametrize("n,eps", [(2, "1e-10"), (4, "-1e-9"), (6, "1e-10")])
    def test_passes_at_small_eps(self, n, eps, capsys):
        # the rescaled metric basis is held as solved, not refused as
        # dependent because its fibre entries grow like 1/|eps|
        assert main(["verify", "--n", str(n), f"--eps={eps}"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out and captured.err == ""

    def test_n3_small_eps_fails_on_its_cause(self, capsys):
        # the z-only skew directions' rounding over |eps| (ROADMAP item 4),
        # not a refusal of the space
        assert main(["verify", "--n", "3", "--eps=1e-9"]) == 1
        assert capsys.readouterr().err == "FAIL: skew_directions_closed_vs_generic\n"

    def test_text_columns_aligned(self, capsys):
        assert main(["verify", "--n", "2", "--eps=-3/2"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.lstrip().startswith(("PASS", "FAIL"))]
        assert len(lines) >= 2
        assert len({line.index(" residual ") for line in lines}) == 1

    @pytest.mark.parametrize("target,check", [
        ("families.closed_torsion", "closed_torsion_vs_generic"),
        ("families.closed_curvature", "closed_curvature_vs_generic"),
        ("families.closed_ricci", "closed_ricci_vs_generic"),
        ("nomizu.s_tensor", "sym_ricci_identity"),
        ("nomizu.torsion_form", "torsion_form_is_skew"),
    ])
    def test_failure_names_check(self, target, check, capsys, monkeypatch):
        # negative control for each per-draw check: corrupt one entry of the
        # tensor it reads, at n = 3, eps = -1 where all five run
        module, name = target.split(".")
        orig = getattr(importlib.import_module(f"bergerconn.{module}"), name)

        def broken(*args):
            out = orig(*args)
            c = np.array(getattr(out, "coeffs", out))
            c[(0, 1) + (0,) * (c.ndim - 2)] += 1e-3
            return c if isinstance(out, np.ndarray) else type(out)(out.n, c)

        monkeypatch.setattr(f"bergerconn.{target}", broken)
        assert main(["verify", "--n", "3", "--eps=-1"]) == 1
        assert capsys.readouterr().err == f"FAIL: {check}\n"

    def test_skew_direction_off_the_generic_space_fails(self, capsys, monkeypatch):
        # negative control: move one named direction off the generic skew space
        orig = families.skew_direction_basis

        def moved(n, eps):
            named = orig(n, eps)
            maps = named.maps.copy()
            maps[0, 0, 1, 0] += 1e-6
            return spaces.LinearSpace(maps, named.offset)

        monkeypatch.setattr(families, "skew_direction_basis", moved)
        assert main(["verify", "--n", "2", "--eps=-1"]) == 1
        assert capsys.readouterr().err == "FAIL: skew_directions_closed_vs_generic\n"

    def test_one_levi_civita_solve(self, monkeypatch, cold_spaces):
        # the Levi-Civita checks read the skew space's offset, not a second solve
        solves = []
        orig = spaces.levi_civita_generic

        def counted(n, eps):
            solves.append((n, eps))
            return orig(n, eps)

        monkeypatch.setattr(spaces, "levi_civita_generic", counted)
        list(cli._verification_checks(3, -1.0, [np.zeros(3)]))
        assert solves == [(3, -1.0)]

    def test_levi_civita_check_uses_named_tolerance(self):
        checks = {name: tol for name, _, tol in cli._verification_checks(2, -1.0, [])}
        assert config.TOL_LC == 1e-10
        assert checks["levi_civita_closed_vs_generic"] == config.TOL_LC


class TestCheckList:
    """verify's checks by name, in order, with their tolerances, for n = 1..4
    with and without draws; each per-draw check is the running maximum of
    its residuals from 0.0."""

    FIXED = [("levi_civita_closed_vs_generic", 1e-10), ("levi_civita_torsion_free", 1e-9),
             ("dimension_counts", 0.5), ("skew_directions_closed_vs_generic", 1e-9)]
    PER_DRAW = [("closed_torsion_vs_generic", 1e-9), ("torsion_form_is_skew", 1e-9),
                ("sym_ricci_identity", 1e-9), ("closed_curvature_vs_generic", 1e-9),
                ("closed_ricci_vs_generic", 1e-9)]

    @staticmethod
    def _draws(n, count):
        return [[0.3 * (i + 1) - 0.7 * j for j in range(families.param_count(n))]
                for i in range(count)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [-1.0, -1.5, 2.0])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_names_order_and_tolerances(self, n, eps, count):
        # S^5 (n = 2) has no closed curvature or Ricci; the round metric
        # adds Ric = 2n g
        per_draw = self.PER_DRAW[:3] if n == 2 else self.PER_DRAW
        round_metric = [("round_ricci_2n_g", 1e-9)] if eps == -1.0 else []
        checks = list(cli._verification_checks(n, eps, self._draws(n, count)))
        assert [(name, tol) for name, _, tol in checks] == self.FIXED + per_draw + round_metric
        if count == 0:
            assert [r for _, r, _ in checks[4:4 + len(per_draw)]] == [0.0] * len(per_draw)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_per_draw_is_the_maximum_over_draws(self, n):
        draws = self._draws(n, 3)
        alone = [dict((name, r) for name, r, _ in cli._verification_checks(n, -1.5, [x]))
                 for x in draws]
        together = dict((name, r) for name, r, _ in cli._verification_checks(n, -1.5, draws))
        for name, _ in self.PER_DRAW[:3] if n == 2 else self.PER_DRAW:
            assert together[name] == max([0.0] + [a[name] for a in alone])


class TestClassify:
    def test_line(self, capsys):
        assert main(["classify", "--n", "1", "--eps=-1"]) == 0
        assert "line" in capsys.readouterr().out

    def test_empty_cell(self, capsys):
        assert main(["classify", "--n", "2", "--eps=-0.5"]) == 0
        assert "empty" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_round_metric_prints_zero(self, n, capsys):
        assert main(["classify", "--n", str(n), "--eps=-1"]) == 0
        line = next(s for s in capsys.readouterr().out.splitlines() if "equation:" in s)
        assert line.endswith(" = 0")
        assert main(["export", "--n", str(n), "--eps=-1"]) == 0
        assert '"c": 0.0,' in capsys.readouterr().out

    def test_json_samples_satisfy_equation(self, capsys):
        assert main(["classify", "--n", "4", "--eps", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "2 pt."
        a, c = doc["equation"]["a"], doc["equation"]["c"]
        for x in doc["samples"]:
            assert abs(a * x[0] ** 2 - c) < 1e-6


class TestTable:
    def test_all_cells_match(self):
        got = compute_table()
        assert [tuple(row) for row in got] == [tuple(row) for row in EXPECTED_TABLE]

    def test_cmd_reports_16(self, capsys):
        assert main(["table"]) == 0
        assert "16/16" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert main(["table", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("regime,")


class TestExport:
    def test_line_kind(self, capsys):
        assert main(["export", "--n", "1", "--eps=-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "line"
        assert doc["ricci_flat"] is True
        assert doc["dims"] == {"invariant": 27, "metric": 9, "skew_directions": 1}

    def test_ricci_flat_flag_n2(self, capsys):
        assert main(["export", "--n", "2", "--eps=-3/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ricci_flat"] is True
        assert doc["kind"] == "ellipsoid"
        for x, s in zip(doc["samples"], doc["scalar_curvatures"]):
            assert abs(sum(v * v for v in x) - 1.0) < 1e-6
            assert abs(s) < 1e-4  # unit sphere: scalar vanishes

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ricci_flat_flag_agrees_with_the_locus(self, n):
        # true at every eps of ricci_flat_locus's samples, false at each
        # TABLE_ROWS eps off it; at n = 3 the locus is all of eps >= -2
        def flag(eps):
            return cli.build_export(cli.RunConfig(n=n, eps=eps))["ricci_flat"]

        on = {eps for eps, _ in einstein.ricci_flat_locus(n).samples}
        off = [eps for _, eps in cli.TABLE_ROWS if eps not in on] + ([-2.5] if n == 3 else [])
        assert off
        assert all(flag(eps) is True for eps in on)
        assert all(flag(eps) is False for eps in off)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_flat_flag_agrees_with_the_check(self, n):
        # export's flag is the cell flat_connection_check finds flat points at
        for _, eps in cli.TABLE_ROWS:
            doc = cli.build_export(cli.RunConfig(n=n, eps=eps))
            assert doc["flat_connections"] is einstein.flat_connection_check(n, eps).flat_exists

    def test_flat_connection_flag(self, capsys):
        assert main(["export", "--n", "3", "--eps=-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flat_connections"] is True

    @pytest.mark.parametrize("n,eps", [(2, -1.5), (3, -1.0), (4, 1.0), (1, -2.0)])
    def test_defects_are_lone_defects(self, n, eps):
        # one stacked check over the samples, each entry a lone call's bytes
        doc = cli.build_export(cli.RunConfig(n=n, eps=eps))
        lone = [einstein.einstein_defect_at(n, eps, x) for x in doc["samples"]]
        assert np.array(doc["residuals"]["einstein_defect"]).tobytes() == np.array(lone).tobytes()

    def test_deterministic_across_runs(self, capsys):
        assert main(["export", "--n", "4", "--eps", "1", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["export", "--n", "4", "--eps", "1", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["export", "--n", "1", "--eps=-2", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "empty" and doc["samples"] == []

    def test_out_file_unwritable(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["export", "--n", "2", "--eps=-3/2", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: ") and str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not path.parent.exists()


class TestStrictJson:
    """JSON output holds only what a strict parser reads: a non-finite float
    is written as null, and no Infinity or NaN token is ever written."""

    # the skew directions' residual overflows at these eps
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n,eps", [("2", "--eps=1e300"), ("4", "--eps=1e200")])
    def test_overflowing_residual_is_null(self, n, eps, capsys):
        assert main(["verify", "--n", n, eps, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        (check,) = [c for c in doc["checks"] if c["name"] == "skew_directions_closed_vs_generic"]
        assert check["residual"] is None and check["pass"] is False

    @pytest.mark.parametrize("argv", [["export", "--n", "1", "--eps=-1"],
                                      ["dims", "--n", "1", "--format", "json"]])
    def test_writer_refuses_non_finite(self, argv, monkeypatch, capsys):
        # with the rounding bypassed, the writer itself refuses a nan
        monkeypatch.setattr(cli, "_round_floats", lambda doc: {**doc, "x": float("nan")})
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("FAIL: ")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["verify", "--n", "2", "--eps=-1"],
                                      ["classify", "--n", "4", "--eps=1"]])
    def test_negative_seed(self, argv, capsys):
        assert main(argv + ["--seed=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: seed must be >= 0\n"
        assert captured.out == ""

    def test_zero_eps(self):
        assert main(["classify", "--n", "2", "--eps", "0"]) == 2

    def test_bad_n(self):
        assert main(["dims", "--n", "0"]) == 2

    @pytest.mark.parametrize("command", ["dims", "verify", "classify", "export"])
    def test_n_beyond_memory(self, command, capsys):
        assert main([command, "--n", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [["table", "--out", "x.csv"],
                                      ["classify", "--tol-sol", "1e-6"],
                                      ["verify", "--tol-num", "1e-8"]])
    def test_flag_the_command_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRankGapReported:
    """A RankGapError from any subcommand is one FAIL line with exit 1."""

    @pytest.mark.parametrize("argv,module,name", [
        (["dims", "--n", "3"], spaces, "invariant_bilinear_space"),
        (["verify", "--n", "3"], spaces, "levi_civita_generic"),
        (["classify", "--n", "3", "--eps=-2"], einstein, "generic_quadric"),
        (["table"], einstein, "classify"),
        (["export", "--n", "3", "--eps=-2"], einstein, "generic_quadric"),
    ])
    def test_fail_line(self, argv, module, name, monkeypatch, capsys, cold_spaces):
        def raises(*args):
            raise spaces.RankGapError("forced")

        monkeypatch.setattr(module, name, raises)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAIL rank decision: forced\n"
        assert captured.out == ""

    def test_torsion_rank_without_a_gap(self, monkeypatch, capsys, cold_spaces):
        # verify's first step, the skew directions solved on the metric
        # space at eps = -1, refuses a metric basis whose torsion has no
        # clear rank gap
        space = gapless_torsion_space(4)
        monkeypatch.setattr(spaces, "metric_connection_space", lambda n, eps: space)
        assert main(["verify", "--n", "4", "--eps=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL rank decision: ambiguous rank: gap ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_subnormal_eps(self):
        # eps = -1e-320 leaves no clear rank: classify and export report it
        for command in ("classify", "export"):
            out = _run_python("from bergerconn.cli import main\n"
                              f"raise SystemExit(main(['{command}', '--n', '3', '--eps=-1e-320']))")
            assert out.returncode == 1
            assert out.stderr.startswith("FAIL rank decision:")
            assert out.stderr.count("\n") == 1


class TestSolverFailureReported:
    def test_fail_line(self, capsys):
        # at (4, 1e5) the sampled 2-pt. root fails the generic check, an
        # absolute TOL_SOL on a defect formed from entries of size eps^2
        assert main(["classify", "--n", "4", "--eps=1e5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["classify", "export"])
    @pytest.mark.parametrize("n,generic", [(4, "2 pt."), (2, "ellipsoid")])
    def test_empty_cell_disagreement(self, command, n, generic, monkeypatch, capsys):
        # an empty cell whose generic quadric has its constant flipped
        q = einstein.generic_quadric(n, -0.5)
        monkeypatch.setattr(einstein, "generic_quadric",
                            lambda *a: einstein.GenericQuadric(q.v, -q.c, q.A, q.gap))
        assert main([command, "--n", str(n), "--eps=-1/2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"FAIL: empty predicted, but the generic quadric is {generic}\n"
        assert captured.out == ""

    def test_levi_civita_residual_miss(self, capsys):
        # at (3, 1e6) the Levi-Civita map is one ulp of its entries of size
        # eps off the closed form, 1.2e-10 against the absolute TOL_LC: a
        # residual failure, not a rank decision
        assert main(["verify", "--n", "3", "--eps=1e6"]) == 1
        assert capsys.readouterr().err.startswith("FAIL: ")


class TestValueErrorReported:
    """A ValueError raised inside a command is one FAIL line with exit 1."""

    @pytest.mark.parametrize("command", ["classify", "export"])
    @pytest.mark.parametrize("n,eps", [(2, "1e-8"), (5, "1e-8"), (4, "1e-10"),
                                       (3, "1e9"), (3, "-1e9"), (3, "1e10"), (3, "-1e10")])
    def test_fail_line(self, command, n, eps, capsys):
        assert main([command, "--n", str(n), f"--eps={eps}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


#: small eps > 0 that the quadric centred at the Levi-Civita map samples
#: within the generic check, where a solved centre of rounding did not
SMALL_EPS_CELLS = ([(2, e) for e in ("1e-7", "1e-6", "1e-5", "1e-4")]
                   + [(4, f"1e-{k}") for k in range(4, 10)]
                   + [(n, e) for n in (5, 6) for e in ("1e-7", "1e-6", "1e-5", "1e-4")])


class TestSmallEpsSampled:
    @pytest.mark.parametrize("command", ["classify", "export"])
    @pytest.mark.parametrize("n,eps", SMALL_EPS_CELLS)
    def test_exit_zero_and_samples_solve(self, command, n, eps, capsys):
        argv = [command, "--n", str(n), f"--eps={eps}"]
        assert main(argv + (["--format", "json"] if command == "classify" else [])) == 0
        doc = json.loads(capsys.readouterr().out)
        eps = float(eps)
        eq = einstein.einstein_equation(n, eps)
        assert doc["kind"] == einstein.classify(n, eps).value
        # the printed samples are the variety's, at the default seed
        samples = einstein.variety(n, eps).sample_points
        assert len(doc["samples"]) == len(samples) > 0
        for x in samples:
            assert einstein.einstein_defect_at(n, eps, x) <= config.TOL_SOL
            assert eq.residual(x) <= 10 * config.TOL_SOL


class TestVerifyCurvatureReuse:
    CHECKS = ["levi_civita_closed_vs_generic", "levi_civita_torsion_free", "dimension_counts",
              "skew_directions_closed_vs_generic", "closed_torsion_vs_generic", "torsion_form_is_skew", "sym_ricci_identity",
              "closed_curvature_vs_generic", "closed_ricci_vs_generic", "round_ricci_2n_g"]

    @pytest.mark.parametrize("n", [3, 2])
    def test_one_curvature_per_map(self, n, monkeypatch, capsys):
        # alpha_lc and the five random draws: six maps, one curvature each
        seen = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: seen.append(a) or curvature(a))
        assert main(["verify", "--n", str(n), "--eps=-1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in doc["checks"]]
        skipped = {"closed_curvature_vs_generic", "closed_ricci_vs_generic"} if n == 2 else set()
        assert names == [c for c in self.CHECKS if c not in skipped]
        assert all(c["pass"] for c in doc["checks"])
        assert len(seen) == 6

    @pytest.mark.parametrize("count", [1, 12])
    def test_direct_call_shares_ric_lc(self, count, monkeypatch):
        # the acceptance grid passes many draws per call: Ric_LC is formed
        # once, so alpha_lc and each draw get one curvature
        seen = []
        curvature = nomizu.curvature
        monkeypatch.setattr(nomizu, "curvature", lambda a: seen.append(a) or curvature(a))
        draws = np.random.default_rng(7).uniform(-2, 2, size=(count, 3))
        assert all(r <= tol for _, r, tol in cli._verification_checks(3, -1.0, draws))
        assert len(seen) == 1 + count


def _run_python(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(bergerconn.__file__).resolve().parents[1])
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [full.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=full, capture_output=True,
                          text=True, timeout=120)


class TestFixedTolerances:
    def test_environment_does_not_reach_config(self, monkeypatch):
        # the tolerances are constants: reloading config under the old
        # override variables leaves them as they are
        monkeypatch.setenv("BERGER_TOL_NUM", "1e-3")
        monkeypatch.setenv("BERGER_TOL_SOL", "1e-1")
        try:
            importlib.reload(config)
            assert (config.TOL_NUM, config.TOL_SOL) == (1e-9, 1e-8)
        finally:
            monkeypatch.undo()
            importlib.reload(config)


class TestQuietByDefault:
    def test_dims_prints_no_log_record(self):
        out = _run_python("from bergerconn.cli import main\n"
                          "raise SystemExit(main(['dims', '--n', '3']))")
        assert out.returncode == 0
        assert out.stderr == ""
        assert "bergerconn.spaces" not in out.stdout

    def test_classify_prints_no_solve_record(self):
        out = _run_python("from bergerconn.cli import main\n"
                          "raise SystemExit(main(['classify', '--n', '3', '--eps=-2']))")
        assert out.returncode == 0
        assert out.stderr == ""
        assert "solve_numeric" not in out.stdout


class TestNoNumpyRandom:
    """No command imports numpy.random: every seeded draw comes from Python's
    own random module, which importing numpy has already loaded."""

    @pytest.mark.parametrize("argv", [
        ["dims", "--n", "4"],
        ["verify", "--n", "3", "--eps=-1"],
        ["classify", "--n", "4", "--eps", "1"],
        ["export", "--n", "2", "--eps=-3/2"],
        ["table"],
    ], ids=" ".join)
    def test_command_leaves_numpy_random_unloaded(self, argv):
        out = _run_python("import sys\nfrom bergerconn.cli import main\n"
                          f"code = main({argv!r})\n"
                          "print('numpy.random' in sys.modules, file=sys.stderr)\n"
                          "raise SystemExit(code)")
        assert out.returncode == 0
        assert out.stderr == "False\n"


class TestColdStart:
    """No command imports dataclasses, and each loads only the layers it
    runs: dims no closed forms, curvature or Einstein layer, verify no
    Einstein layer.  A bare import of the package loads none of its modules."""

    UNLOADED = {"dims": {"einstein", "families", "nomizu"}, "verify": {"einstein"}}

    @pytest.mark.parametrize("argv", [
        ["dims", "--n", "4"],
        ["verify", "--n", "3", "--eps=-1"],
        ["classify", "--n", "4", "--eps", "1"],
        ["export", "--n", "2", "--eps=-3/2"],
        ["table"],
    ], ids=" ".join)
    def test_command_loads_only_what_it_runs(self, argv):
        out = _run_python("import sys\nfrom bergerconn.cli import main\n"
                          f"code = main({argv!r})\n"
                          "print(sorted(sys.modules), file=sys.stderr)\n"
                          "raise SystemExit(code)")
        assert out.returncode == 0
        loaded = set(ast.literal_eval(out.stderr))
        assert "dataclasses" not in loaded
        unloaded = {f"bergerconn.{layer}" for layer in self.UNLOADED.get(argv[0], ())}
        assert loaded & unloaded == set()
        assert "bergerconn.spaces" in loaded

    def test_bare_import_loads_no_module(self):
        out = _run_python("import sys\nimport bergerconn\n"
                          "print(sorted(m for m in sys.modules if m.startswith('bergerconn.')))")
        assert out.returncode == 0
        assert out.stdout == "[]\n"
