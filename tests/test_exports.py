"""Every exported name exists, and the package re-exports only public names."""

import importlib

import pytest

import quanto_bayes

MODULES = ("model", "inference", "diagnostics", "pricing", "data_io", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_name_in_all(name):
    namespace = {}
    exec(f"from quanto_bayes.{name} import *", namespace)
    module = importlib.import_module(f"quanto_bayes.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= set(namespace)


def test_package_reexports_only_names_in_their_modules_all():
    modules = [importlib.import_module(f"quanto_bayes.{name}") for name in MODULES]
    for attr, value in vars(quanto_bayes).items():
        if attr.startswith("_") or attr in MODULES:
            continue
        assert any(attr in module.__all__ and getattr(module, attr) is value
                   for module in modules), attr
