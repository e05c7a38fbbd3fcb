"""The benchmark's tracer (bench/spans.py) wraps library functions by name.

A target that the library renames or deletes would make the tracer raise
`KeyError` on entry, so `bench/run.py --trace 1` would fail; these tests
load the tracer read-only and check that every target exists, that it is
wrapped wherever a thetalab module holds it, and that leaving the tracer
puts every original back.
"""

import importlib.util
import os
import sys

from thetalab.curves import CurveSpec

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holders(spans):
    """(owner, name, original) of every place a target is reachable: its
    class, or each thetalab module that binds it by name."""
    modules = [m for name, m in sys.modules.items()
               if name == "thetalab" or name.startswith("thetalab.")]
    out = []
    for owner, attr, *_ in spans.TARGETS:
        original = vars(owner)[attr]
        if isinstance(owner, type):
            out.append((owner, attr, original))
            continue
        out += [(mod, name, original) for mod in modules
                for name, val in vars(mod).items() if val is original]
    return out


def test_every_target_exists():
    spans = _load_spans()
    for owner, attr, layer, span, counts in spans.TARGETS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} is gone"
        assert layer in spans.LAYERS + ("curves",)


def test_tracer_wraps_the_targets_and_restores_them():
    spans = _load_spans()
    import thetalab.periods
    holders = _holders(spans)
    assert len(holders) > len(spans.TARGETS)        # names imported across modules
    with spans.Tracer() as tracer:
        for owner, name, original in holders:
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name}"
        thetalab.periods.build_periods(CurveSpec.of(2, [0, 1, 2]))
        snap = tracer.snapshot()
    for owner, name, original in holders:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"
    assert set(snap) == set(spans.METRICS)
    assert snap["periods.build_calls"] == 1
    assert snap["quadrature.leg_calls"] > 0 and snap["homology.cycle_builds"] > 0
    assert snap["periods.build_s"] > 0
