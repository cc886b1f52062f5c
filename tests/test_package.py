"""The package's read-only value types and its namespace.

The 13 value types keep the constructors, the read-only fields, the repr,
the equality and the hash that they had as frozen dataclasses.  The package
resolves its public names and its submodules on first access."""

import importlib
import inspect

import numpy as np
import pytest

import bergerconn
from bergerconn import algebra, cli, einstein, families, nomizu, spaces

#: each value type and its constructor's parameters, in field order
SIGNATURES = {
    algebra.Metric: "(n, eps)",
    algebra.MVec: "(n, z, a)",
    spaces.Bilin: "(n, coeffs)",
    spaces.LinearSpace: "(maps, offset=None)",
    nomizu.CurvTensor: "(n, coeffs)",
    nomizu.Rank2Tensor: "(n, coeffs)",
    families.FamilyParams: "(regime, q, t, p=0.0, p2=0.0)",
    einstein.CanonicalEquation: "(n, eps, a, b, c, names)",
    einstein.GenericQuadric: "(v, c, A, gap)",
    einstein.EinsteinVariety: "(n, eps, kind, equation, sample_points)",
    einstein.RicciFlatLocus: "(n, description, samples, ricci_norms)",
    einstein.FlatnessReport: "(n, eps, flat_exists, flat_samples, max_norm_on_flat_set, "
                             "min_norm_on_grid)",
    cli.RunConfig: "(n=2, eps=-1.0, seed=0, fmt='text', out=None)",
}


def _instances():
    """One object of each value type."""
    eq = einstein.einstein_equation(4, -2.0)
    return [
        algebra.Metric(3, -2.0),
        algebra.MVec(1, [1.0], 0.5j),
        spaces.Bilin(1, np.zeros((3, 3, 3))),
        spaces.LinearSpace(np.eye(27)[:2].reshape(2, 3, 3, 3)),
        nomizu.CurvTensor(1, np.zeros((3, 3, 3, 3))),
        nomizu.Rank2Tensor(1, np.zeros((3, 3))),
        families.FamilyParams("s3", 1.0, 2.0),
        eq,
        einstein.GenericQuadric(np.ones(1), 1.0, np.eye(1), 1e8),
        einstein.EinsteinVariety(4, -2.0, einstein.VarietyClass.TWO_POINTS, eq, ()),
        einstein.RicciFlatLocus(1, "eps = -1, s = +-1", ((-1.0, (1.0,)),), (0.0,)),
        einstein.FlatnessReport(4, -1.0, False, (), 0.0, 0.5),
        cli.RunConfig(),
    ]


def _field_names(obj) -> tuple[str, ...]:
    return tuple(inspect.signature(type(obj)).parameters)


def _plain(cls) -> str:
    """The constructor's signature with no annotations, e.g. "(n, eps)"."""
    sig = inspect.signature(cls)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


class TestValueTypes:
    @pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
    def test_signature(self, cls):
        assert _plain(cls) == SIGNATURES[cls]

    @pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
    def test_repr_eq_and_hash_read_the_constructor_fields(self, cls):
        assert cls._fields == tuple(inspect.signature(cls).parameters)

    def test_one_instance_each(self):
        assert [type(obj) for obj in _instances()] == list(SIGNATURES)

    @pytest.mark.parametrize("index", range(len(SIGNATURES)),
                             ids=[cls.__name__ for cls in SIGNATURES])
    def test_fields_read_only(self, index):
        obj = _instances()[index]
        for name in [*_field_names(obj), "extra"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        for name in _field_names(obj):
            getattr(obj, name)

    @pytest.mark.parametrize("obj,text", [
        (algebra.Metric(3, -2.0), "Metric(n=3, eps=-2.0)"),
        (families.FamilyParams("s3", 1, 2),
         "FamilyParams(regime='s3', q=(1+0j), t=2.0, p=0j, p2=0j)"),
        (cli.RunConfig(), "RunConfig(n=2, eps=-1.0, seed=0, fmt='text', out=None)"),
        (einstein.einstein_equation(2, -1.0),
         "CanonicalEquation(n=2, eps=-1.0, a=1.0, b=1.0, c=0.0, names=('s', 's3', 's4'))"),
    ])
    def test_repr(self, obj, text):
        assert repr(obj) == text

    @pytest.mark.parametrize("make", [
        lambda: algebra.Metric(3, -2.0),
        lambda: families.FamilyParams("s7", 0.5, -1.0, 1j),
        lambda: einstein.einstein_equation(3, -2.0),
        lambda: einstein.EinsteinVariety(4, -1.0, einstein.VarietyClass.ONE_POINT,
                                         einstein.einstein_equation(4, -1.0), ((0.0,),)),
        lambda: einstein.RicciFlatLocus(1, "eps = -1", ((-1.0, (1.0,)),), (0.0,)),
        lambda: einstein.FlatnessReport(3, -1.0, True, ((1.0, 1.0, 0.0),), 1e-15, 0.0),
        lambda: cli.RunConfig(3, -0.5, 7, "json", "out.json"),
    ], ids=["Metric", "FamilyParams", "CanonicalEquation", "EinsteinVariety",
            "RicciFlatLocus", "FlatnessReport", "RunConfig"])
    def test_equal_fields_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != tuple(getattr(a, name) for name in _field_names(a))

    def test_unequal_fields_compare_unequal(self):
        assert algebra.Metric(3, -2.0) != algebra.Metric(3, -1.0)
        assert algebra.Metric(3, -2.0) != algebra.Metric(2, -2.0)
        assert len({algebra.Metric(3, -2.0), algebra.Metric(3, -2.0), algebra.Metric(3, 1.0)}) == 2

    def test_array_field_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(nomizu.Rank2Tensor(1, np.zeros((3, 3))))

    def test_linear_space_caches_its_basis(self):
        space = spaces.LinearSpace(np.eye(27)[:2].reshape(2, 3, 3, 3))
        assert space.basis is space.basis and len(space.basis) == 2

    def test_mvec_constructor_runs_post_init(self, monkeypatch):
        # perfbench's tracer counts MVec constructions through __post_init__
        calls = []
        post_init = algebra.MVec.__post_init__
        monkeypatch.setattr(algebra.MVec, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        assert len(algebra.standard_basis(2)) == len(calls) == 5


#: the public names the package resolves, by the module that defines them
EXPORTS = {
    "algebra": ["Metric"],
    "einstein": ["CanonicalEquation", "EinsteinVariety", "VarietyClass", "classify",
                 "einstein_defect_at", "einstein_equation", "flat_connection_check",
                 "ricci_flat_locus", "scalar_curvature_formula", "solve_numeric", "variety"],
    "families": ["FamilyParams", "alpha_general", "alpha_lc", "closed_curvature",
                 "closed_ricci", "closed_torsion", "skew_family"],
    "nomizu": ["CurvTensor", "Rank2Tensor", "curvature", "einstein_defect", "ricci", "s_tensor",
               "sym", "torsion", "torsion_form"],
    "spaces": ["Bilin", "LinearSpace", "RankGapError", "invariant_bilinear_space",
               "levi_civita_generic", "metric_connection_space", "skew_torsion_space"],
}
SUBMODULES = ["algebra", "cli", "config", "einstein", "families", "nomizu", "spaces"]


class TestNamespace:
    @pytest.mark.parametrize("module,name", [(m, name) for m, names in EXPORTS.items()
                                             for name in names])
    def test_name_resolves(self, module, name):
        assert getattr(bergerconn, name) is getattr(importlib.import_module(f"bergerconn.{module}"),
                                                    name)
        assert name in dir(bergerconn)

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_resolves(self, module):
        assert getattr(bergerconn, module) is importlib.import_module(f"bergerconn.{module}")
        assert module in dir(bergerconn)

    def test_all_is_the_thirty_five_names(self):
        names = sorted(name for names in EXPORTS.values() for name in names)
        assert sorted(bergerconn.__all__) == names and len(names) == 35

    @pytest.mark.parametrize("name", ["no_such_name", "param_count", "TOL_NUM", "_HOME_"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(bergerconn, name)
        assert not hasattr(bergerconn, name)
