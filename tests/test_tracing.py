"""The question benchmark's tracer wraps bcdimer functions by name; these
tests install and uninstall it, so that an API change which would crash a
traced benchmark run fails here instead."""

import importlib.util
from pathlib import Path

from bcdimer import bicomplex

_TRACING = Path(__file__).resolve().parents[1] / "qbench" / "tracing.py"


def test_install_wraps_and_uninstall_restores():
    spec = importlib.util.spec_from_file_location("_qbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {(home, fname): getattr(home, fname, None)
                 for home, fname in tracing._FUNCTIONS}
    methods = {(cls, meth): cls.__dict__.get(meth)
               for cls, meth, _layer in tracing._METHODS}
    missing = [name for name, fn in [*originals.items(), *methods.items()]
               if fn is None]
    assert not missing, f"the tracer wraps names that are gone: {missing}"
    B = bicomplex.Bicomplex
    dunders = {name: B.__dict__[name]
               for name in ("__init__", "__mul__", "__rmul__")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (home, fname), fn in originals.items():
            assert getattr(home, fname).__wrapped__ is fn
        for (cls, meth), fn in methods.items():
            assert cls.__dict__[meth].__wrapped__ is fn
        assert B.__dict__["__mul__"] is not dunders["__mul__"]
    finally:
        tracer.uninstall()
    for (home, fname), fn in originals.items():
        assert getattr(home, fname) is fn
    for (cls, meth), fn in methods.items():
        assert cls.__dict__[meth] is fn
    for name, fn in dunders.items():
        assert B.__dict__[name] is fn
