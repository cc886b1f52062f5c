"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

import numpy as np

from bergerconn import cli, einstein, families, nomizu, spaces
from bergerconn.algebra import Metric, _from_coords, _to_coords
from bergerconn.spaces import Bilin


def _report(num: int, desc: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {desc}  [{detail}]")
    assert ok, f"criterion {num}: {desc} [{detail}]"


def _worst(grid):
    """Per-name worst residual of verify's checks over (n, eps, draws) cells."""
    worst = {}
    for n, eps, draws in grid:
        for name, residual, _ in cli._verification_checks(n, eps, draws):
            worst[name] = max(worst.get(name, 0.0), residual)
    return worst


def _on_shell_point(n, eps, rng):
    """A random exact solution of the canonical equation, or None if empty."""
    eq = einstein.einstein_equation(n, eps)
    if n == 1:
        return (float(rng.uniform(-3, 3)),) if eq.line else None
    if n == 2:
        if eq.c < 0:
            return None
        v = rng.standard_normal(3)
        v *= np.sqrt(eq.c) / np.linalg.norm(v)
        return tuple(float(x) for x in v)
    if n == 3:
        for _ in range(50):
            s1, s2 = rng.uniform(-3, 3, size=2)
            s2sq = (2 * (eps + 1) - s1 * s1 - s2 * s2) / eps
            if s2sq >= 0:
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                return (float(sign * np.sqrt(s2sq)), float(s1), float(s2))
        return None
    if eq.c < 0:
        return None
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return (float(sign * np.sqrt(eq.c)),)


def test_criterion_1_dimension_counts():
    expected_inv = {1: 27, 2: 13, 3: 9, 4: 7, 5: 7}
    expected_met = {1: 9, 2: 7, 3: 5, 4: 3, 5: 3}
    got_inv, got_met = {}, {}
    for n in range(1, 6):
        doc = cli.compute_dims(n)
        got_inv[n] = doc["invariant"]
        got_met[n] = doc["metric"][0] if len(doc["metric"]) == 1 else tuple(doc["metric"])
    ok = got_inv == expected_inv and got_met == expected_met
    _report(1, "invariant dims 27,13,9,7,7 and metric dims 9,7,5,3,3", ok,
            f"invariant={list(got_inv.values())}, metric={list(got_met.values())}")


def test_criterion_2_skew_direction_counts():
    expected = {1: 1, 2: 3, 3: 3, 4: 1, 5: 1}
    got = {}
    for n in range(1, 6):
        dims = {spaces.skew_torsion_space(n, eps).dim for eps in cli.EPS_SWEEP}
        got[n] = dims.pop() if len(dims) == 1 else tuple(sorted(dims))
    ok = got == expected
    _report(2, "skew-torsion direction dims 1,3,3,1,1", ok, f"got={list(got.values())}")


def test_criterion_3_closed_forms_vs_generic():
    tol = 1e-9
    rng = np.random.default_rng(31)
    regimes = (("s3", 1), ("s5", 2), ("s7", 3), ("general_n", 4))
    off_family, grid = 0.0, []
    Z, _ = _from_coords(np.eye(5))  # the z-parts of the S^5 standard basis
    T = families.theta(Z)
    for eps in cli.EPS_SWEEP:
        for regime, n in regimes:
            draws = []
            for _ in range(20):
                # torsion off the skew family: general metric-family parameters
                q = complex(*rng.uniform(-2, 2, size=2))
                t = float(rng.uniform(-2, 2))
                if regime == "s5":
                    p = complex(*rng.uniform(-2, 2, size=2))
                    p2 = complex(*rng.uniform(-2, 2, size=2))
                    params = families.FamilyParams(regime, q, t, p, p2)
                    # the theta terms (-eps p b theta(z) + p2 a theta(w),
                    # -i Im(conj(p) conj(theta(z))^t w)) on the standard basis
                    c = np.zeros((5, 5, 5))
                    c[:, -1] += _to_coords(-eps * p * 1j * T, 0.0)
                    c[-1] += _to_coords(p2 * 1j * T, 0.0)
                    c[..., -1] = -np.imag(np.conj(p) * (np.conj(T) @ Z.T))
                    alpha = Bilin(2, families.alpha_metric(n, eps, q, t).coeffs + c)
                elif regime == "s7":
                    p = complex(*rng.uniform(-2, 2, size=2))
                    params = families.FamilyParams(regime, q, t, p)
                    alpha = Bilin(3, families.alpha_metric(n, eps, q, t).coeffs
                                  + families._delta_s7(p).coeffs)
                else:
                    params = families.FamilyParams(regime, q, t)
                    alpha = families.alpha_metric(n, eps, q, t)
                r = np.abs(
                    nomizu.torsion(alpha).coeffs
                    - families.closed_torsion(n, eps, params).coeffs
                ).max()
                off_family = max(off_family, float(r))
                # torsion, curvature and Ricci on the skew family: verify's checks
                draws.append(rng.uniform(-2, 2, size=einstein.param_count(n)))
            grid.append((n, eps, draws))
    worst = _worst(grid)
    names = ("closed_torsion_vs_generic", "closed_curvature_vs_generic", "closed_ricci_vs_generic")
    overall = max([off_family] + [worst[name] for name in names])
    _report(3, "closed torsion/curvature/Ricci vs generic calculus <= 1e-9",
            overall <= tol, f"max residual {overall:.2e}: off-family torsion {off_family:.2e}, "
            + ", ".join(f"{name} {worst[name]:.2e}" for name in names))


def test_criterion_4_levi_civita():
    worst = _worst((n, eps, []) for n in range(1, 6) for eps in cli.EPS_SWEEP)
    worst_lc, worst_ric = worst["levi_civita_closed_vs_generic"], worst["round_ricci_2n_g"]
    ok = worst_lc <= 1e-10 and worst_ric <= 1e-9
    _report(4, "generic Levi-Civita = closed form (1e-10); round Ric = 2n g (1e-9)",
            ok, f"lc {worst_lc:.2e}, ric {worst_ric:.2e}")


def test_criterion_5_sym_ricci_identity():
    rng = np.random.default_rng(52)
    cells = [(n, eps) for n in range(1, 6) for eps in (-2.0, -1.0, 0.5, 2.0)]
    per_cell = int(np.ceil(200 / len(cells)))
    grid = [(n, eps, [rng.uniform(-2, 2, size=einstein.param_count(n)) for _ in range(per_cell)])
            for n, eps in cells]
    count = sum(len(draws) for _, _, draws in grid)
    worst = _worst(grid)["sym_ricci_identity"]
    _report(5, "Sym(Ric) = Ric_LC - S/4 within 1e-9 on random skew connections",
            worst <= 1e-9 and count >= 200, f"{count} draws, max residual {worst:.2e}")


def test_criterion_6_einstein_equivalence():
    rng = np.random.default_rng(63)
    eps_cells = (-3.0, -1.5, -1.0, -0.5, 0.5, 2.0)
    bad = 0
    total = 0
    for n in range(1, 6):
        k = einstein.param_count(n)
        for eps in eps_cells:
            eq = einstein.einstein_equation(n, eps)
            draws = [tuple(rng.uniform(-3, 3, size=k)) for _ in range(150)]
            for _ in range(50):
                x = _on_shell_point(n, eps, rng)
                draws.append(x if x is not None else tuple(rng.uniform(-3, 3, size=k)))
            for x in draws:
                defect = einstein.einstein_defect_at(n, eps, x)
                eqres = eq.residual(x)
                if (defect <= 1e-8) != (eqres <= 1e-6):
                    bad += 1
                total += 1
    # the numeric benchmark point
    sols = einstein.solve_numeric(4, 1.0)
    target = np.sqrt(10.0 / 3.0)
    s_err = max(abs(abs(s) - target) for (s,) in sols) if sols else np.inf
    ok = bad == 0 and total >= 200 * 30 and s_err <= 1e-8
    _report(6, "defect <= 1e-8 iff canonical equation <= 1e-6; (4,1) gives |s|=sqrt(10/3)",
            ok, f"{total} draws, {bad} mismatches, |s| error {s_err:.2e}")


def test_criterion_7_table():
    got = cli.compute_table()
    expected = [list(row) for row in cli.EXPECTED_TABLE]
    matches = sum(
        got[i][j] == expected[i][j] for i in range(4) for j in range(4)
    )
    _report(7, "all 16 regime cells match the expected table", matches == 16,
            f"{matches}/16")


def test_criterion_8_special_loci():
    rng = np.random.default_rng(85)
    # Ricci-flat loci
    worst_rf = 0.0
    for n in range(1, 6):
        locus = einstein.ricci_flat_locus(n)
        worst_rf = max(worst_rf, max(locus.ricci_norms))
    # flat circle on the round 7-sphere and the n=4 exclusion margin
    circle = einstein.flat_connection_check(3, -1.0)
    margin = einstein.flat_connection_check(4, -1.0)
    # scalar-curvature closed forms on exact solutions
    worst_sc = 0.0
    for n in range(1, 6):
        for eps in (-2.0, -1.0, 0.5, 2.0):
            g = Metric(n, eps)
            for _ in range(5):
                x = _on_shell_point(n, eps, rng)
                if x is None:
                    continue
                ric = nomizu.ricci(nomizu.curvature(families.skew_family(n, eps, x)), g)
                r = abs(
                    nomizu.scalar(ric, g)
                    - einstein.scalar_curvature_formula(n, eps, x)
                )
                worst_sc = max(worst_sc, float(r))
    ok = (
        worst_rf <= 1e-8
        and circle.flat_exists
        and circle.max_norm_on_flat_set <= 1e-8
        and not margin.flat_exists
        and margin.min_norm_on_grid > 0.1
        and worst_sc <= 1e-9
    )
    _report(8, "Ricci-flat loci, flat circle, n=4 exclusion, scalar closed forms",
            ok,
            f"ricci {worst_rf:.2e}, circle {circle.max_norm_on_flat_set:.2e}, "
            f"margin {margin.min_norm_on_grid:.2f}, scalar {worst_sc:.2e}")


def test_criterion_9_n1_negative_result():
    mins = {eps: einstein.min_defect_n1(eps) for eps in (-2.0, -0.5, 1.0)}
    ok = all(v > 1e-3 for v in mins.values())
    _report(9, "n=1 minimum Einstein defect exceeds 1e-3 off the round metric",
            ok, ", ".join(f"eps={e}: {v:.2e}" for e, v in mins.items()))
