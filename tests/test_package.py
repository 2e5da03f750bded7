"""Package exports: every public module name, each exactly once."""

import importlib

import pytest

import lieforge

MODULES = ("errors", "rng", "linalg", "sampler", "analysis", "oracle", "serialize")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve_on_the_package(module_name):
    module = importlib.import_module(f"lieforge.{module_name}")
    for name in module.__all__:
        assert name in lieforge.__all__
        assert getattr(lieforge, name) is getattr(module, name)


def test_package_exports_are_unique_and_resolve():
    assert len(lieforge.__all__) == len(set(lieforge.__all__))
    for name in lieforge.__all__:
        assert hasattr(lieforge, name)
