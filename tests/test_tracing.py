"""The traced benchmark run wraps bmc functions by their dotted names.

`perfbench/tracing.py` looks each name up in the loaded bmc modules and
rebinds every module attribute that holds it. A name that an API change
deletes or moves would break that run; this test fails first.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import bmc.cli  # noqa: F401  -- the tracer patches the bmc modules already loaded
from bmc import fock

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    module_name, *path = dotted.split(".")
    return functools.reduce(getattr, path, sys.modules[f"bmc.{module_name}"])


def _owners():
    modules = [m for key, m in sys.modules.items() if key == "bmc" or key.startswith("bmc.")]
    return modules + [fock.DensityMatrix]


def test_tracer_wraps_every_binding_and_restores_it():
    tracing = _load_tracing()
    originals = [_resolve(dotted) for dotted in tracing.TRACED]
    before = [(owner, dict(vars(owner))) for owner in _owners()]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(_resolve(dotted), "__wrapped__", None) for dotted in tracing.TRACED]
        left = [
            attr
            for owner in _owners()
            for attr, value in vars(owner).items()
            if any(value is fn for fn in originals)
        ]
    finally:
        tracer.uninstall()
    assert all(w is fn for w, fn in zip(wrapped, originals))
    assert left == []
    for owner, snapshot in before:
        now = vars(owner)
        assert now.keys() == snapshot.keys()
        assert [attr for attr, value in snapshot.items() if now[attr] is not value] == []
