"""Command-line surface: dimension checks, verification suite, variety
classification, the full regime table, and JSON export.

Each command imports the layers it runs when it runs: dims reads only
algebra and spaces, verify adds families and nomizu, and classify, table
and export add einstein.

Exit codes: 0 all checks pass, 1 verification failure (a rank decision
without a clear gap, a failed solve or an unwritable output file among
them), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from . import config, spaces
from .algebra import Metric, _Frozen
from .spaces import RankGapError


def expected_dims(n: int) -> tuple[int, int, int]:
    """(invariant, metric, skew directions) dimensions: the paper's counts
    for n = 1, 2, 3 and 7, 3, 1 for every n >= 4."""
    return {1: (27, 9, 1), 2: (13, 7, 3), 3: (9, 5, 3)}.get(n, (7, 3, 1))


EPS_SWEEP = (-3.0, -1.0, -0.1, 0.5, 2.0)

# rows: eps representative per regime; columns: n >= 4, 3, 2, 1
TABLE_ROWS = (
    ("eps < -1", -2.0),
    ("eps = -1", -1.0),
    ("-1 < eps < 0", -0.5),
    ("eps > 0", 1.0),
)
TABLE_COLUMNS = (4, 3, 2, 1)
EXPECTED_TABLE = (
    ("2 pt.", "hyperboloid 2-sheets", "ellipsoid", "empty"),
    ("1 pt.", "cone", "1 pt.", "line"),
    ("empty", "hyperboloid 1-sheet", "empty", "empty"),
    ("2 pt.", "ellipsoid", "ellipsoid", "empty"),
)


class RunConfig(_Frozen):
    """One command's parsed arguments, refused with ValueError before any
    computation."""

    _fields = ("n", "eps", "seed", "fmt", "out")

    def __init__(self, n: int = 2, eps: float = -1.0, seed: int = 0, fmt: str = "text",
                 out: str | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        spaces.check_fits_memory(n)
        if eps == 0:
            raise ValueError("eps must be nonzero")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "fmt", fmt)
        object.__setattr__(self, "out", out)


def parse_eps(text: str) -> float:
    """Parse eps given as a decimal or a rational like -3/2."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"invalid eps {text!r}") from exc


def _round_floats(obj):
    """Normalize all floats to 15 significant digits for stable output, and
    write a non-finite one as null: JSON has no inf or nan."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _to_json(doc: dict) -> str:
    """doc as strict JSON (RFC 8259): no Infinity or NaN token is written."""
    return json.dumps(_round_floats(doc), sort_keys=True, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# dims


def compute_dims(n: int) -> dict:
    inv = spaces.invariant_bilinear_space(n).dim
    per_eps = {}
    for eps in EPS_SWEEP:
        met = spaces.metric_connection_space(n, eps).dim
        skw = spaces.skew_torsion_space(n, eps).dim
        per_eps[eps] = (met, skw)
    mets = {m for m, _ in per_eps.values()}
    skws = {s for _, s in per_eps.values()}
    stable = len(mets) == 1 and len(skws) == 1
    return {
        "n": n,
        "invariant": inv,
        "metric": sorted(mets),
        "skew_directions": sorted(skws),
        "eps_sweep": list(EPS_SWEEP),
        "stable_under_eps": stable,
    }


def cmd_dims(cfg: RunConfig) -> int:
    doc = compute_dims(cfg.n)
    if cfg.fmt == "json":
        print(_to_json(doc))
    else:
        print(f"n = {cfg.n}")
        print(f"  invariant bilinear maps : {doc['invariant']}")
        print(f"  metric connections      : {doc['metric']}")
        print(f"  skew-torsion directions : {doc['skew_directions']} (affine)")
        print(f"  stable over eps sweep   : {doc['stable_under_eps']}")
    got = (doc["invariant"], doc["metric"][0], doc["skew_directions"][0])
    return 0 if doc["stable_under_eps"] and got == expected_dims(cfg.n) else 1


# ---------------------------------------------------------------------------
# verify


def _verification_checks(n: int, eps: float, draws):
    """Yield (name, residual, tolerance) for the oracle suite at (n, eps).

    The Levi-Civita, dimension and skew-direction checks read (n, eps)
    alone.  The per-draw checks report their worst residual over `draws`,
    each a point of the skew family's families.param_count(n) parameters,
    refused as skew_family refuses any other width; no draws leave them
    at 0.  Ric_LC is formed once per call, so the call forms
    1 + len(draws) curvatures.
    `cmd_verify` passes five draws from --seed; the acceptance gate and
    the property tests run the same checks over their own grids.
    """
    from . import families, nomizu

    g = Metric(n, eps)

    # the skew space's offset is levi_civita_generic(n, eps)
    skew = spaces.skew_torsion_space(n, eps)
    yield (
        "levi_civita_closed_vs_generic",
        float(np.abs(skew.offset.coeffs - families.alpha_lc(n, eps).coeffs).max()),
        config.TOL_LC,
    )
    yield (
        "levi_civita_torsion_free",
        float(np.abs(nomizu.torsion(families.alpha_lc(n, eps)).coeffs).max()),
        config.TOL_NUM,
    )
    got = (
        spaces.invariant_bilinear_space(n).dim,
        spaces.metric_connection_space(n, eps).dim,
        skew.dim,
    )
    yield ("dimension_counts", float(got != expected_dims(n)), 0.5)
    # each named direction, moved onto the generic offset, against the generic span
    yield (
        "skew_directions_closed_vs_generic",
        max(skew.projection_residual(c + skew.offset.coeffs) / max(1.0, float(np.abs(c).max()))
            for c in families.skew_direction_basis(n, eps).maps),
        config.TOL_NUM,
    )

    regime = {1: "s3", 2: "s5", 3: "s7"}.get(n, "general_n")

    # one curvature and Ricci per map, shared by every check that reads them
    ric_lc = nomizu.ricci(nomizu.curvature(families.alpha_lc(n, eps)), g).coeffs
    r_skew, r_formulicas, r_tor, r_cur, r_ric = 0.0, 0.0, 0.0, 0.0, 0.0
    for x in draws:
        alpha = families.skew_family(n, eps, x)
        params = families.FamilyParams.skew(regime, n, eps, *x)
        R = nomizu.curvature(alpha)
        ric = nomizu.ricci(R, g)
        om = nomizu.torsion_form(alpha, g)
        r_skew = max(r_skew, nomizu.skew_residual(om))
        r_tor = max(
            r_tor,
            float(
                np.abs(
                    families.closed_torsion(n, eps, params).coeffs
                    - nomizu.torsion(alpha).coeffs
                ).max()
            ),
        )
        S = nomizu.s_tensor(alpha, g)
        r_formulicas = max(
            r_formulicas,
            float(np.abs(nomizu.sym(ric).coeffs - (ric_lc - S.coeffs / 4.0)).max()),
        )
        if n != 2:
            r_cur = max(
                r_cur,
                float(np.abs(families.closed_curvature(n, eps, params).coeffs - R.coeffs).max()),
            )
            r_ric = max(
                r_ric,
                float(np.abs(families.closed_ricci(n, eps, params).coeffs - ric.coeffs).max()),
            )
    yield ("closed_torsion_vs_generic", r_tor, config.TOL_NUM)
    yield ("torsion_form_is_skew", r_skew, config.TOL_NUM)
    yield ("sym_ricci_identity", r_formulicas, config.TOL_NUM)
    if n != 2:
        yield ("closed_curvature_vs_generic", r_cur, config.TOL_NUM)
        yield ("closed_ricci_vs_generic", r_ric, config.TOL_NUM)
    if eps == -1.0:
        yield (
            "round_ricci_2n_g",
            float(np.abs(ric_lc - 2 * n * g.gram()).max()),
            config.TOL_NUM,
        )


def cmd_verify(cfg: RunConfig) -> int:
    from . import families

    rng = random.Random(cfg.seed)
    draws = [[rng.uniform(-2.0, 2.0) for _ in range(families.param_count(cfg.n))]
             for _ in range(5)]
    results = [(name, resid, tol, resid <= tol)
               for name, resid, tol in _verification_checks(cfg.n, cfg.eps, draws)]
    if cfg.fmt == "json":
        print(_to_json({
            "n": cfg.n,
            "eps": cfg.eps,
            "checks": [
                {"name": n_, "residual": r, "tol": t, "pass": p}
                for n_, r, t, p in results
            ],
        }))
    else:
        width = max(len(name) for name, *_ in results)
        for name, resid, tol, ok in results:
            mark = "PASS" if ok else "FAIL"
            print(f"  {mark}  {name:{width}s} residual {resid:.3e}  (tol {tol:.0e})")
    failing = [name for name, _, _, ok in results if not ok]
    if failing:
        print(f"FAIL: {failing[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# classify / table


def _cell(var) -> dict:
    """The cell block that classify prints and export writes from an
    einstein.EinsteinVariety: n, eps, kind, the canonical equation and the
    samples."""
    eq = var.equation
    return {
        "n": var.n,
        "eps": var.eps,
        "kind": var.kind.value,
        "equation": {"a": eq.a, "b": eq.b, "c": eq.c, "params": list(eq.names)},
        "samples": [list(x) for x in var.sample_points],
    }


def cmd_classify(cfg: RunConfig) -> int:
    from . import einstein

    var = einstein.variety(cfg.n, cfg.eps, seed=cfg.seed)
    eq = var.equation
    if cfg.fmt == "json":
        print(_to_json(_cell(var)))
    else:
        print(f"n = {cfg.n}, eps = {cfg.eps}: {var.kind.value}")
        if cfg.n == 1:
            line = var.kind is einstein.VarietyClass.LINE
            print("  equation: eps = -1 (any s)" if line else "  no solutions")
        else:
            aux = " + ".join(f"{p}^2" for p in eq.names[1:])
            aux = f" + {aux}" if aux else ""
            print(f"  equation: {eq.a:g}*s^2{aux} = {eq.c:g}")
        for x in var.sample_points:
            print(f"  sample: {tuple(round(v, 8) for v in x)}")
    return 0


def compute_table() -> list[list[str]]:
    from . import einstein

    return [
        [einstein.classify(n, eps).value for n in TABLE_COLUMNS]
        for _, eps in TABLE_ROWS
    ]


def cmd_table(cfg: RunConfig) -> int:
    got = compute_table()
    expected = [list(row) for row in EXPECTED_TABLE]
    mismatches = [
        (TABLE_ROWS[i][0], TABLE_COLUMNS[j], got[i][j], expected[i][j])
        for i in range(4)
        for j in range(4)
        if got[i][j] != expected[i][j]
    ]
    if cfg.fmt == "json":
        print(_to_json({"rows": [r for r, _ in TABLE_ROWS], "columns": list(TABLE_COLUMNS),
                        "cells": got, "mismatches": len(mismatches)}))
    elif cfg.fmt == "csv":
        print("regime," + ",".join(f"n={n}" if n < 4 else "n>=4" for n in TABLE_COLUMNS))
        for (label, _), row in zip(TABLE_ROWS, got):
            print(label + "," + ",".join(row))
    else:
        header = ["regime"] + [f"n={n}" if n < 4 else "n>=4" for n in TABLE_COLUMNS]
        widths = [max(14, len(h)) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for (label, _), row in zip(TABLE_ROWS, got):
            cells = [label] + row
            print("  ".join(c.ljust(w) for c, w in zip(cells, widths + [22] * 4)))
        print(f"{16 - len(mismatches)}/16 cells match the expected table")
    for label, n, g, e in mismatches:
        print(f"MISMATCH {label}, n={n}: got {g!r}, expected {e!r}", file=sys.stderr)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# export


def build_export(cfg: RunConfig) -> dict:
    from . import __version__, einstein

    dims = compute_dims(cfg.n)
    var = einstein.variety(cfg.n, cfg.eps, seed=cfg.seed)
    scalars = [
        einstein.scalar_curvature_formula(cfg.n, cfg.eps, x) for x in var.sample_points
    ]
    defects = einstein.einstein_defects(cfg.n, cfg.eps, var.sample_points).tolist()
    return {
        "tool": "bergerconn",
        "version": __version__,
        "seed": cfg.seed,
        "dims": {
            "invariant": dims["invariant"],
            "metric": dims["metric"][0],
            "skew_directions": dims["skew_directions"][0],
        },
        **_cell(var),
        "scalar_curvatures": scalars,
        "residuals": {"einstein_defect": defects},
        "ricci_flat": einstein.ricci_flat_exists(cfg.n, cfg.eps),
        "flat_connections": (cfg.n, cfg.eps) == einstein.FLAT_CELL,
    }


def cmd_export(cfg: RunConfig) -> int:
    doc = build_export(cfg)
    text = _to_json(doc) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergerconn",
        description="Invariant Einstein-with-skew-torsion connections on Berger spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads, and all accept --seed
    def command(name, summary, n=True, eps=True, formats=("text", "json")):
        p = sub.add_parser(name, help=summary)
        if n:
            p.add_argument("--n", type=int, default=2, help="ambient parameter (dim 2n+1)")
        if eps:
            p.add_argument("--eps", type=parse_eps, default=-1.0,
                           help="metric deformation, decimal or rational like -3/2")
        p.add_argument("--seed", type=int, default=0)
        if formats:
            p.add_argument("--format", dest="fmt", choices=formats, default="text")
        return p

    command("dims", "dimension counts of the connection spaces", eps=False)
    command("verify", "closed forms vs generic calculus")
    command("classify", "Einstein variety for one (n, eps)")
    command("table", "all 16 regime cells", n=False, eps=False,
            formats=("text", "json", "csv"))
    command("export", "JSON report for one (n, eps)", formats=()).add_argument(
        "--out", default=None)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        cfg = RunConfig(**args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "dims": cmd_dims,
        "verify": cmd_verify,
        "classify": cmd_classify,
        "table": cmd_table,
        "export": cmd_export,
    }[command]
    try:
        return handler(cfg)
    except RankGapError as exc:
        print(f"FAIL rank decision: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
