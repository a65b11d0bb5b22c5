"""Tests of the public API surface: exports, docstrings, re-exports."""

from __future__ import annotations

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.blossom",
    "repro.core.bucketize",
    "repro.core.config",
    "repro.core.detector",
    "repro.core.eligibility",
    "repro.core.generator",
    "repro.core.graph",
    "repro.core.hashing",
    "repro.core.histogram",
    "repro.core.knapsack",
    "repro.core.matching",
    "repro.core.modification",
    "repro.core.multidimensional",
    "repro.core.multiwatermark",
    "repro.core.secrets",
    "repro.core.similarity",
    "repro.core.tokens",
    "repro.core.transform",
    "repro.datasets",
    "repro.datasets.adult",
    "repro.datasets.clickstream",
    "repro.datasets.loaders",
    "repro.datasets.synthetic",
    "repro.datasets.tabular",
    "repro.datasets.taxi",
    "repro.attacks",
    "repro.attacks.base",
    "repro.attacks.destroy",
    "repro.attacks.evaluation",
    "repro.attacks.guess",
    "repro.attacks.rewatermark",
    "repro.attacks.sampling",
    "repro.analysis",
    "repro.analysis.decomposition",
    "repro.analysis.distortion",
    "repro.analysis.false_positive",
    "repro.analysis.reporting",
    "repro.baselines",
    "repro.baselines.genetic",
    "repro.baselines.partitioning",
    "repro.baselines.wm_obt",
    "repro.baselines.wm_rvs",
    "repro.ml",
    "repro.ml.sequence_model",
    "repro.dispute",
    "repro.dispute.judge",
    "repro.dispute.registry",
    "repro.service",
    "repro.service.cache",
    "repro.service.client",
    "repro.service.server",
    "repro.service.service",
    "repro.service.wire",
    "repro.experiments",
    "repro.experiments.cache",
    "repro.experiments.executor",
    "repro.experiments.plan",
    "repro.experiments.report",
    "repro.experiments.spec",
    "repro.experiments.tasks",
    "repro.utils",
    "repro.utils.rng",
    "repro.utils.timing",
    "repro.utils.validation",
    "repro.exceptions",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"


@pytest.mark.parametrize(
    "module_name",
    [name for name in PUBLIC_MODULES if not name.endswith(".cli")],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip("module does not define __all__")
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"


def test_top_level_exports_are_usable():
    import repro

    # The names advertised in the package docstring quickstart must exist
    # and be callable / instantiable.
    assert callable(repro.generate_watermark)
    assert callable(repro.detect_watermark)
    assert repro.__version__.count(".") == 2
    secret = repro.WatermarkSecret.build([("a", "b")], secret=1, modulus_cap=7)
    assert isinstance(secret, repro.WatermarkSecret)


def test_exceptions_form_a_single_hierarchy():
    from repro import exceptions

    error_classes = [
        getattr(exceptions, name)
        for name in dir(exceptions)
        if isinstance(getattr(exceptions, name), type)
        and issubclass(getattr(exceptions, name), Exception)
    ]
    assert exceptions.ReproError in error_classes
    for error_class in error_classes:
        assert issubclass(error_class, exceptions.ReproError)


def test_public_callables_have_docstrings():
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} is missing a docstring"
