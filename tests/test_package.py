"""Package exports: every public module name, each exactly once; scipy loads lazily."""

import importlib
import os
import subprocess
import sys
import textwrap

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


def test_scipy_loads_on_the_first_oracle_solve_only():
    """Import, generate, write, read and verify run without scipy; a solve loads it."""
    script = textwrap.dedent(
        """
        import sys

        import lieforge
        import lieforge.cli
        from lieforge import (
            assemble_system, generate, read_sample, solve_system, verify_all, write_sample,
        )

        sample = generate(6, seed=1)
        assert verify_all(read_sample(write_sample(sample))).passed
        assert "scipy" not in sys.modules
        solve_system(assemble_system(sample.structure[0]))
        assert "scipy.linalg" in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(lieforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
