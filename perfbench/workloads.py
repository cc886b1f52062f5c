"""The benchmark's four workloads, each a fixed task list generated from a seed.

Load model: one client in one process, closed loop; the next task starts
when the previous one returns.  A pass runs the whole task list; the run
repeats passes until its time is up.

Why these four:

- spaces_cold: the dense Kronecker SVD nullspace dominates (n = 5, 6);
  every functools cache is cleared before each n, so nothing is reused.
- crosscheck: the closed-form tabulations of ``families`` dominate, against
  a few larger ``nomizu`` calls; no SVD runs in a pass.
- einstein_table: finite-difference Gauss-Newton in ``solve_numeric``
  dominates, calling ``nomizu.curvature`` and ``LinearSpace.element``
  thousands of times at one (n, eps); the spaces are built in setup.
- cli_cold: every task is a fresh CLI process, so import, the first
  LAPACK call and cache filling fall inside the timed task, as they do for
  every real invocation.  Each runs through cli_child.py, which samples the
  calibration kernel inside that process.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
import cli_child
from calib import REF_KERNEL_S, SpeedSampler
from checks import TOL_LC, TOL_NUM, TOL_SOL, CheckFailed, Fingerprints, require

EPS_SWEEP = (-3.0, -1.0, -0.1, 0.5, 2.0)
CLI_CHILD = str(Path(__file__).resolve().parent / "cli_child.py")
MAX_LOGGED_FAILURES = 20


class Recorder:
    """Plain per-call timings (name -> n -> seconds) and counters."""

    def __init__(self):
        self.times: dict[str, dict[int, list[float]]] = {}
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    def call(self, name: str, n: int, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.times.setdefault(name, {}).setdefault(n, []).append(perf_counter() - t0)
        return out

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def gauge(self, name: str, value: float) -> None:
        """Keep the first reading, so later passes cannot mask it."""
        self.gauges.setdefault(name, value)


@dataclass
class PassResult:
    latencies: list[float]  # wall seconds per task
    ref: list[float]  # reference seconds per task (calib.py), else wall
    attempted: int
    failed: int

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def ref_seconds(self) -> float:
        return sum(self.ref)


class Workload:
    """A task list plus the set-up it needs.  Each task is (label, fn(rec, fp));
    fn returns None or, if it timed its work in reference seconds itself,
    that time."""

    name = ""
    in_process = True  # False when the package runs in child processes
    # sample the kernel in this process during passes (calib.py)
    speed_scaled = True

    def __init__(self, bc, seed: int, root: str):
        self.bc = bc  # the bergerconn package
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.logged = 0

    def setup(self) -> None:
        # first LAPACK call of the process; later SVDs run without its cost
        a = np.random.default_rng(0).standard_normal((200, 100))
        np.linalg.svd(a)

    def tasks(self) -> list:
        raise NotImplementedError

    def run_pass(self, rec: Recorder, speed: SpeedSampler | None) -> PassResult:
        """Run the task list once, inside ``speed``'s context if one is given."""
        fp = Fingerprints()
        intervals, failed = [], 0
        for label, fn in self.tasks():
            t0, ref = perf_counter(), None
            try:
                ref = fn(rec, fp)
            except Exception as exc:  # a failing task is counted, the run goes on
                failed += 1
                self._log(label, exc)
            intervals.append((t0, perf_counter(), ref))
        try:
            fp.check()
        except CheckFailed as exc:
            failed += 1
            self._log("cache fingerprints", exc)
        wall = [t1 - t0 for t0, t1, _ in intervals]
        ref = [r if r is not None else speed.to_ref(t0, t1) if speed else t1 - t0
               for t0, t1, r in intervals]
        return PassResult(wall, ref, len(intervals) + 1, failed)

    def _log(self, label, exc) -> None:
        if self.logged < MAX_LOGGED_FAILURES:
            print(f"FAIL {self.name} {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.logged += 1


class SpacesCold(Workload):
    name = "spaces_cold"
    # its large SVDs stream hundreds of MB and do not follow the speed of
    # the cache-resident kernel; its pass time is steady in wall seconds
    speed_scaled = False

    def __init__(self, bc, seed, root):
        super().__init__(bc, seed, root)
        self.caches = list(spans.find_caches(bc).values())
        self.eps_order = {n: tuple(float(e) for e in self.rng.permutation(EPS_SWEEP))
                          for n in range(1, 7)}

    def tasks(self):
        return [(f"n={n}", lambda rec, fp, n=n: self.task(n, rec, fp)) for n in range(1, 7)]

    def task(self, n, rec, fp):
        bc = self.bc
        for clear in self.caches:
            clear.cache_clear()
        rec.call("algebra.structure_tensors", n, bc.algebra.structure_tensors, n)  # cold
        inv = rec.call("spaces.invariant_bilinear_space", n, bc.spaces.invariant_bilinear_space, n)
        rec.gauge(f"spaces.rss_mb.n{n}", max_rss_mb())
        for eps in self.eps_order[n]:
            met = rec.call("spaces.metric_connection_space", n,
                           bc.spaces.metric_connection_space, n, eps)
            skw = rec.call("spaces.skew_torsion_space", n, bc.spaces.skew_torsion_space, n, eps)
            lc = rec.call("spaces.levi_civita_generic", n, bc.spaces.levi_civita_generic, n, eps)
            checks.check_dims(n, (inv.dim, met.dim, skw.dim))
            ref = bc.families.alpha_lc(n, eps)
            checks.check_close(f"levi_civita n={n} eps={eps}", lc.coeffs, ref.coeffs, TOL_LC)
            fp.add(f"alpha_lc({n},{eps})", ref.coeffs)
            fp.add(f"skew_torsion_space({n},{eps}).offset", skw.offset.coeffs)
            for i, b in enumerate(skw.basis):
                fp.add(f"skew_torsion_space({n},{eps}).basis[{i}]", b.coeffs)


class Crosscheck(Workload):
    name = "crosscheck"
    REGIME = {1: "s3", 2: "s5", 3: "s7"}

    def __init__(self, bc, seed, root):
        super().__init__(bc, seed, root)
        self.cases = []
        for n in range(1, 6):
            k = bc.einstein.param_count(n)
            for eps in EPS_SWEEP:
                for _ in range(4):
                    self.cases.append((n, eps, tuple(self.rng.uniform(-2.0, 2.0, size=k))))
        self.ric_lc = {}

    def setup(self):
        super().setup()
        bc = self.bc
        for n in range(1, 6):
            for eps in EPS_SWEEP:
                g = bc.algebra.Metric(n, eps)
                lc = bc.families.alpha_lc(n, eps)
                self.ric_lc[n, eps] = bc.nomizu.ricci(bc.nomizu.curvature(lc), g).coeffs
                bc.families.direction_s(n, eps)

    def tasks(self):
        return [(f"n={n} eps={eps} x={x}", lambda rec, fp, c=(n, eps, x): self.task(*c, rec, fp))
                for n, eps, x in self.cases]

    def task(self, n, eps, x, rec, fp):
        fam, nom = self.bc.families, self.bc.nomizu
        fp.add(f"alpha_lc({n},{eps})", fam.alpha_lc(n, eps).coeffs)
        fp.add(f"direction_s({n},{eps})", fam.direction_s(n, eps).coeffs)
        for i, a in enumerate(self.bc.algebra.structure_tensors(n)):
            fp.add(f"structure_tensors({n})[{i}]", a)
        g = self.bc.algebra.Metric(n, eps)
        regime = self.REGIME.get(n, "general_n")
        alpha = rec.call("families.skew_family", n, fam.skew_family, n, eps, x)
        params = fam.FamilyParams.skew(regime, n, eps, *x, *([0.0] * (3 - len(x))))
        tc = rec.call("families.closed_torsion", n, fam.closed_torsion, n, eps, params)
        checks.check_close("closed torsion", tc.coeffs, nom.torsion(alpha).coeffs, TOL_NUM)
        R = rec.call("nomizu.curvature", n, nom.curvature, alpha)
        ric = rec.call("nomizu.ricci", n, nom.ricci, R, g)
        if n != 2:  # S^5 has no closed curvature
            rc = rec.call("families.closed_curvature", n, fam.closed_curvature, n, eps, params)
            checks.check_close("closed curvature", rc.coeffs, R.coeffs, TOL_NUM)
            ricc = rec.call("families.closed_ricci", n, fam.closed_ricci, n, eps, params)
            checks.check_close("closed ricci", ricc.coeffs, ric.coeffs, TOL_NUM)
        S = rec.call("nomizu.s_tensor", n, nom.s_tensor, alpha, g)
        sym_ric = 0.5 * (ric.coeffs + ric.coeffs.T)
        checks.check_close("Sym(Ric) = Ric_LC - S/4", sym_ric,
                           self.ric_lc[n, eps] - S.coeffs / 4.0, TOL_NUM)
        checks.check_skew_form(nom.torsion_form(alpha, g))


class EinsteinTable(Workload):
    name = "einstein_table"
    # every (n, eps) whose skew-torsion space a pass reads, built in setup
    SPACES = (
        [(n, eps) for n in checks.TABLE_N for eps in checks.TABLE_EPS]
        + [(2, -1.5), (3, -2.0), (3, -1.0), (3, -0.5), (3, 1.0), (3, 2.0),
           (4, -2.5), (5, -3.0)]
    )

    def __init__(self, bc, seed, root):
        super().__init__(bc, seed, root)
        self.cells = [(n, eps, int(self.rng.integers(2**31)))
                      for eps in checks.TABLE_EPS for n in checks.TABLE_N]

    def setup(self):
        super().setup()
        for n, eps in self.SPACES:
            self.bc.spaces.skew_torsion_space(n, eps)

    def tasks(self):
        out = [(f"cell n={n} eps={eps}", lambda rec, fp, c=(n, eps, s): self.cell(*c, rec, fp))
               for n, eps, s in self.cells]
        out += [(f"ricci_flat_locus n={n}", lambda rec, fp, n=n: self.ricci_flat(n, rec))
                for n in range(1, 6)]
        out += [("flat_connection_check 3", lambda rec, fp: self.flat(3, rec)),
                ("flat_connection_check 4", lambda rec, fp: self.flat(4, rec))]
        out += [(f"min_defect_n1 eps={eps}", lambda rec, fp, eps=eps: self.min_defect(eps, rec))
                for eps in (-2.0, -0.5, 1.0)]
        return out

    def cell(self, n, eps, seed, rec, fp):
        space = self.bc.spaces.skew_torsion_space(n, eps)
        fp.add(f"skew_torsion_space({n},{eps}).offset", space.offset.coeffs)
        for i, b in enumerate(space.basis):
            fp.add(f"skew_torsion_space({n},{eps}).basis[{i}]", b.coeffs)
        ein = self.bc.einstein
        var = ein.variety(n, eps, seed=seed)
        checks.check_cell(n, eps, var.kind.value)
        exact = checks.EXACT_POINTS.get(var.kind.value)
        if var.kind.value == "empty":
            require(not var.sample_points, f"samples on an empty variety at n={n}, eps={eps}")
        else:
            require(var.sample_points, f"no samples at n={n}, eps={eps}")
        for x in var.sample_points:
            r = var.equation.residual(x)
            require(r <= 10 * TOL_SOL, f"sample {x} off the canonical equation: {r:.3e}")
            d = ein.einstein_defect_at(n, eps, x)
            require(d <= TOL_SOL, f"sample {x} has Einstein defect {d:.3e}")
        if exact is not None:
            rec.count("einstein.solve_numeric.extra_samples",
                      max(0, len(var.sample_points) - exact))

    def ricci_flat(self, n, rec):
        loc = rec.call("einstein.ricci_flat_locus", n, self.bc.einstein.ricci_flat_locus, n)
        require(loc.samples and len(loc.ricci_norms) == len(loc.samples),
                f"ricci_flat_locus({n}): no samples")
        require(max(loc.ricci_norms) <= TOL_SOL,
                f"ricci_flat_locus({n}): |Ric| = {max(loc.ricci_norms):.3e}")

    def flat(self, n, rec):
        rep = rec.call("einstein.flat_connection_check", n,
                       self.bc.einstein.flat_connection_check, n, -1.0)
        if n == 3:
            require(rep.flat_exists and rep.flat_samples, "no flat circle at n=3, eps=-1")
            require(rep.max_norm_on_flat_set <= TOL_SOL,
                    f"flat circle |R| = {rep.max_norm_on_flat_set:.3e}")
        else:
            require(not rep.flat_exists, f"flat connection claimed at n={n}, eps=-1")
            require(rep.min_norm_on_grid > 0.1, f"n={n} margin {rep.min_norm_on_grid:.3e}")

    def min_defect(self, eps, rec):
        m = rec.call("einstein.min_defect_n1", 1, self.bc.einstein.min_defect_n1, eps)
        require(m > 1e-3, f"min_defect_n1({eps}) = {m:.3e}")


class CliCold(Workload):
    name = "cli_cold"
    in_process = False
    speed_scaled = False  # the CLI processes sample the kernel themselves

    def __init__(self, bc, seed, root):
        super().__init__(bc, seed, root)
        s = str(int(self.rng.integers(2**31)))
        self.commands = (
            ("verify", ["verify", "--n", "3", "--eps=-1", "--format", "json", "--seed", s]),
            ("classify", ["classify", "--n", "4", "--eps", "1", "--format", "json", "--seed", s]),
            ("export", ["export", "--n", "2", "--eps=-3/2", "--seed", s]),
            ("dims", ["dims", "--n", "4", "--format", "json", "--seed", s]),
            ("table", ["table", "--format", "json", "--seed", s]),
        )

    def setup(self):
        pass  # the tasks are fresh processes; nothing in this one is reused

    def tasks(self):
        return [(name, lambda rec, fp, c=(name, argv): self.run_cli(*c, rec))
                for name, argv in self.commands]

    def run_cli(self, name, argv, rec) -> float:
        """Run one command in a fresh process; its time in reference seconds."""
        t0 = perf_counter()
        proc = rec.call(f"cli.{name}", 0, subprocess.run,
                        [sys.executable, CLI_CHILD, *argv],
                        cwd=self.root, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        checks.check_cli(name, proc.returncode, proc.stdout)
        tag, kernel_s, paused_s = proc.stderr.splitlines()[-1].split()
        require(tag == cli_child.TAG, f"cli {name}: no kernel line on stderr")
        return (wall - float(paused_s)) * REF_KERNEL_S / float(kernel_s)


WORKLOADS = {w.name: w for w in (SpacesCold, Crosscheck, EinsteinTable, CliCold)}


def max_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0
