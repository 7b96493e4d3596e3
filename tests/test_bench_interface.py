"""The benchmark's tracer (bench/tracer.py) wraps the program's functions by
name in every module that holds them.  Each name it wraps must exist, and
uninstalling must put every original back."""

import importlib
from pathlib import Path

import shellswitch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_then_uninstall_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for layer in tracer.LAYERS:
        importlib.import_module(f"shellswitch.{layer}")
    modules = [shellswitch] + [getattr(shellswitch, layer) for layer in tracer.LAYERS]
    before = [dict(vars(module)) for module in modules]
    wrapped = [(layer, name) for layer, names in tracer.SPANNED.items() for name in names]
    wrapped += [*tracer.COUNTED, ("search", "brentq")]

    t = tracer.Tracer(shellswitch)
    try:
        t.install()
        for layer, name in wrapped:
            module = getattr(shellswitch, layer)
            assert getattr(module, name) is not before[modules.index(module)][name], name
    finally:
        t.uninstall()

    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys(), module.__name__
        changed = [attr for attr, value in saved.items() if now[attr] is not value]
        assert changed == [], module.__name__


def test_calibration_check_names_resolve_to_their_modules():
    """bench/calibration_check.py imports PatchSpec, build_spacetime and
    trajectory from the package itself; the package serves those three, and
    only those, from their defining modules."""
    from shellswitch import geodesic, spacetime

    assert shellswitch.PatchSpec is spacetime.PatchSpec
    assert shellswitch.build_spacetime is spacetime.build_spacetime
    assert shellswitch.trajectory is geodesic.trajectory
    assert not hasattr(shellswitch, "SearchConfig")
