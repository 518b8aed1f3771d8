"""The benchmark's tracer finds every function it names in the library.

``perfbench/tracing.py`` wraps functions by module and name, and its
``install`` raises on a name that no longer exists.  Running it here makes
renaming or deleting a traced function (``words.instantiate``,
``intlinalg.det_bareiss``, ...) fail this suite as well as the benchmark's
own tests.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

import bridgecover.cli  # noqa: E402,F401  (loads every traced module)


def _traced_functions():
    """(module, attribute path, current value) of every traced name."""
    for targets in tracing.TARGETS.values():
        for module_name, path in targets:
            value = sys.modules[f"bridgecover.{module_name}"]
            for part in path.split("."):
                value = getattr(value, part)
            yield module_name, path, value


def test_tracer_installs_and_uninstalls_every_target():
    tracer = tracing.Tracer(sys.modules["bridgecover"])
    tracer.install()
    try:
        unwrapped = [(module, path) for module, path, fn in _traced_functions()
                     if not hasattr(fn, "__wrapped__")]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert [(module, path) for module, path, fn in _traced_functions()
            if hasattr(fn, "__wrapped__")] == []
