"""Reference checks for the benchmark's outputs.

The references are fixed here, copied from the paper's results as the
acceptance gate states them, so that a change to the package's own
expectation tables cannot make a wrong output pass.  Tolerances are the
package's own (1e-10 for the Levi-Civita map, TOL_NUM = 1e-9 for derived
identities, TOL_SOL = 1e-8 for Einstein solutions) and never looser.

Every check raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL_LC = 1e-10
TOL_NUM = 1e-9
TOL_SOL = 1e-8

# n -> (invariant, metric, skew directions), stable over eps
DIMS = {
    1: (27, 9, 1),
    2: (13, 7, 3),
    3: (9, 5, 3),
    4: (7, 3, 1),
    5: (7, 3, 1),
    6: (7, 3, 1),
}

# eps representative per regime row; columns n >= 4 (as n = 4), 3, 2, 1
TABLE_EPS = (-2.0, -1.0, -0.5, 1.0)
TABLE_N = (4, 3, 2, 1)
TABLE = (
    ("2 pt.", "hyperboloid 2-sheets", "ellipsoid", "empty"),
    ("1 pt.", "cone", "1 pt.", "line"),
    ("empty", "hyperboloid 1-sheet", "empty", "empty"),
    ("2 pt.", "ellipsoid", "ellipsoid", "empty"),
)
EXACT_POINTS = {"1 pt.": 1, "2 pt.": 2}


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_close(name: str, got: np.ndarray, ref: np.ndarray, tol: float) -> None:
    got, ref = np.asarray(got), np.asarray(ref)
    require(got.shape == ref.shape, f"{name}: shape {got.shape} != {ref.shape}")
    r = max_abs_diff(got, ref)
    require(r <= tol, f"{name}: residual {r:.3e} > {tol:.0e}")


def check_dims(n: int, got: tuple[int, int, int]) -> None:
    require(tuple(got) == DIMS[n], f"dims at n={n}: {tuple(got)} != {DIMS[n]}")


def expected_kind(n: int, eps: float) -> str:
    return TABLE[TABLE_EPS.index(eps)][TABLE_N.index(n)]


def check_cell(n: int, eps: float, kind: str) -> None:
    exp = expected_kind(n, eps)
    require(kind == exp, f"table cell n={n}, eps={eps}: {kind!r} != {exp!r}")


def check_skew_form(omega: np.ndarray) -> None:
    """Total antisymmetry of the lowered torsion omega[i, j, k]."""
    r = max(
        max_abs_diff(omega, -omega.transpose(1, 0, 2)),
        max_abs_diff(omega, -omega.transpose(0, 2, 1)),
    )
    require(r <= TOL_NUM, f"torsion form not totally skew: {r:.3e}")


def _cli_json(name: str, returncode: int, stdout: str) -> dict:
    require(returncode == 0, f"cli {name}: exit code {returncode}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"cli {name}: output is not JSON ({exc})") from None


def check_cli(name: str, returncode: int, stdout: str) -> None:
    """Exit code 0 and the expected JSON fields for one benchmark command."""
    doc = _cli_json(name, returncode, stdout)
    if name == "verify":  # verify --n 3 --eps=-1
        names = {c["name"] for c in doc["checks"]}
        want = {"levi_civita_closed_vs_generic", "dimension_counts",
                "closed_curvature_vs_generic", "closed_ricci_vs_generic",
                "sym_ricci_identity", "round_ricci_2n_g"}
        require(want <= names, f"cli verify: missing checks {sorted(want - names)}")
        bad = [c["name"] for c in doc["checks"]
               if not c["pass"] or c["residual"] > c["tol"]]
        require(not bad, f"cli verify: failing checks {bad}")
    elif name == "classify":  # classify --n 4 --eps 1: s^2 = 10/3
        require(doc["kind"] == expected_kind(4, 1.0), f"cli classify: kind {doc['kind']!r}")
        s = sorted(x[0] for x in doc["samples"])
        require(len(s) == 2 and s[0] < 0 < s[1], f"cli classify: samples {s}")
        require(max(abs(v * v - 10.0 / 3.0) for v in s) <= 10 * TOL_SOL,
                f"cli classify: samples {s} off s^2 = 10/3")
    elif name == "export":  # export --n 2 --eps=-3/2
        d = doc["dims"]
        check_dims(2, (d["invariant"], d["metric"], d["skew_directions"]))
        require(doc["kind"] == "ellipsoid", f"cli export: kind {doc['kind']!r}")
        defects = doc["residuals"]["einstein_defect"]
        require(len(defects) == len(doc["samples"]) > 0, "cli export: no samples")
        require(max(defects) <= TOL_SOL, f"cli export: defect {max(defects):.3e}")
    elif name == "dims":  # dims --n 4
        require(doc["stable_under_eps"], "cli dims: not stable under eps")
        got = (doc["invariant"], *doc["metric"], *doc["skew_directions"])
        check_dims(4, got)
    elif name == "table":
        require(doc["mismatches"] == 0, f"cli table: {doc['mismatches']} mismatches")
        require([tuple(r) for r in doc["cells"]] == list(TABLE), "cli table: cells differ")
    else:
        raise ValueError(f"unknown cli command {name!r}")


def fingerprint(a: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()


class Fingerprints:
    """Hashes of cached arrays taken when first read, compared at pass end.

    An optimisation that writes into a cached array in place changes the
    hash and fails the pass.
    """

    def __init__(self):
        self._seen: dict[int, tuple[str, np.ndarray, str]] = {}

    def add(self, label: str, a: np.ndarray) -> None:
        if id(a) not in self._seen:
            self._seen[id(a)] = (label, a, fingerprint(a))

    def check(self) -> None:
        changed = [lab for lab, a, fp in self._seen.values() if fingerprint(a) != fp]
        require(not changed, f"cached arrays changed during the pass: {changed[:5]}")
