"""Self-tests of the benchmark: every reference check rejects a corrupted
output, the cache walk finds every functools cache, tracing leaves the
package as it found it, and reference seconds scale as documented.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bergerconn  # noqa: E402
from bergerconn import families, nomizu  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402

CACHES = {
    "bergerconn.algebra.h_basis",
    "bergerconn.algebra.adjoint_matrices",
    "bergerconn.algebra.structure_tensors",
    "bergerconn.spaces.invariant_bilinear_space",
    "bergerconn.spaces.metric_connection_space",
    "bergerconn.spaces.skew_torsion_space",
    "bergerconn.families.alpha_lc",
    "bergerconn.families.direction_s",
    "bergerconn.families.skew_direction_basis",
}


def test_levi_civita_check_rejects_perturbed_coefficient():
    ref = families.alpha_lc(2, -1.5).coeffs
    checks.check_close("lc", ref.copy(), ref, checks.TOL_LC)
    bad = ref.copy()
    bad[1, 2, 3] += 1e-8
    with pytest.raises(CheckFailed):
        checks.check_close("lc", bad, ref, checks.TOL_LC)


def test_dims_check_rejects_wrong_triple():
    checks.check_dims(2, (13, 7, 3))
    for wrong in [(13, 7, 1), (13, 5, 3), (27, 7, 3)]:
        with pytest.raises(CheckFailed):
            checks.check_dims(2, wrong)


def test_cell_check_rejects_wrong_kind():
    checks.check_cell(3, -1.0, "cone")
    with pytest.raises(CheckFailed):
        checks.check_cell(3, -1.0, "ellipsoid")
    with pytest.raises(CheckFailed):
        checks.check_cell(4, -1.0, "2 pt.")


def test_skew_form_check_rejects_symmetric_part():
    om = np.zeros((3, 3, 3))
    om[0, 1, 2] = om[1, 2, 0] = om[2, 0, 1] = 1.0
    om[1, 0, 2] = om[2, 1, 0] = om[0, 2, 1] = -1.0
    checks.check_skew_form(om)
    om[0, 1, 2] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_skew_form(om)


def _table_doc(cells):
    return json.dumps({"cells": [list(r) for r in cells], "mismatches": 0})


def test_cli_check_rejects_nonzero_exit_and_wrong_output():
    good = _table_doc(checks.TABLE)
    checks.check_cli("table", 0, good)
    with pytest.raises(CheckFailed):
        checks.check_cli("table", 1, good)
    with pytest.raises(CheckFailed):
        checks.check_cli("table", 0, "not json")
    wrong = [list(r) for r in checks.TABLE]
    wrong[1][1] = "ellipsoid"
    with pytest.raises(CheckFailed):
        checks.check_cli("table", 0, _table_doc(wrong))
    dims = {"stable_under_eps": True, "invariant": 7, "metric": [3], "skew_directions": [1]}
    checks.check_cli("dims", 0, json.dumps(dims))
    with pytest.raises(CheckFailed):
        checks.check_cli("dims", 0, json.dumps({**dims, "metric": [5]}))


def test_cache_walk_finds_every_lru_cache():
    found = spans.find_caches(bergerconn)
    assert set(found) == CACHES
    assert all(callable(f.cache_clear) for f in found.values())


def test_fingerprints_detect_in_place_write():
    a = np.arange(6.0)
    fp = checks.Fingerprints()
    fp.add("a", a)
    fp.check()
    a[2] = -1.0
    with pytest.raises(CheckFailed):
        fp.check()


def test_tracer_counts_calls_and_restores_package():
    from bergerconn import einstein, spaces

    orig_curv, orig_elem = nomizu.curvature, spaces.LinearSpace.element
    orig_from = spaces.Bilin.__dict__["from_function"]
    with spans.Tracer(bergerconn) as tr:
        assert nomizu.curvature is not orig_curv
        einstein.einstein_defect_at(4, -1.0, (0.5,))
    assert nomizu.curvature is orig_curv
    assert spaces.LinearSpace.element is orig_elem
    assert spaces.Bilin.__dict__["from_function"] is orig_from
    summary = spans.summarize(tr.spans)
    assert summary["calls"]["nomizu.curvature"] == 1
    assert summary["calls"]["spaces.LinearSpace.element"] == 1
    assert summary["calls"]["einstein.einstein_defect_at"] == 1
    total = sum(t1 - t0 for _, t0, t1, parent, _ in tr.spans if parent < 0)
    assert sum(summary["self_s"].values()) == pytest.approx(total)


def test_to_ref_scales_by_kernel_and_leaves_out_kernel_time():
    sp = calib.SpeedSampler()
    # kernel samples at t = 0, 1, 2, 3 s; the machine runs at half speed
    sp.starts = [0.0, 1.0, 2.0, 3.0]
    sp.kernel_s = [2 * calib.REF_KERNEL_S] * 4
    sp.paused = [0.0, 0.1, 0.2, 0.3, 0.4]
    # [0.5, 2.5] holds the samples at 1 and 2 s, 0.2 s of kernel in all
    assert sp.to_ref(0.5, 2.5) == pytest.approx((2.0 - 0.2) / 2)
    sp.kernel_s = [9.0, 9.0, calib.REF_KERNEL_S, calib.REF_KERNEL_S]
    # median of the samples at 0 (before), 1 (inside) and 2 s (after)
    assert sp.to_ref(0.5, 1.5) == pytest.approx((1.0 - 0.1) * calib.REF_KERNEL_S / 9.0)


def test_sampler_samples_while_work_runs_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calib.SpeedSampler(period_s=0.01) as sp:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sp.kernel_s) >= 5
    assert 0 < sp.to_ref(t0, t1)


@pytest.mark.parametrize("argv, code", [(["dims", "--n", "4", "--format", "json"], 0),
                                        (["no-such-command"], 2)])
def test_cli_child_keeps_exit_code_and_reports_kernel(argv, code):
    import os
    import subprocess

    import cli_child

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    tag, kernel_s, paused_s = proc.stderr.splitlines()[-1].split()
    assert tag == cli_child.TAG and float(kernel_s) > 0 and float(paused_s) > 0
    if code == 0:
        checks.check_cli("dims", proc.returncode, proc.stdout)
