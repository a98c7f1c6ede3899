"""Span self time, notes, and installing/removing the wrappers."""

import numpy as np
import pytest

import gibbs_qaoa as gq
import gibbs_qaoa.harness  # noqa: F401
from spans import Instrumented, Tracer, layer_metrics, targets


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_span_self_time():
    tr = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0, 12.0, 13.0]))
    tr.enter("a.outer")
    tr.enter("b.inner")
    tr.exit()
    tr.enter("b.inner")
    tr.exit()
    tr.exit()
    tr.enter("b.inner")
    tr.exit()
    outer, inner = tr.stats["a.outer"], tr.stats["b.inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 10.0, 7.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (3, 4.0, 4.0)
    assert tr.root_s == 11.0
    assert tr.layer_self_s("a") == 7.0
    assert tr.layer_self_s("b") == 4.0


def test_wrap_records_notes_and_closes_span_on_error():
    tr = Tracer(clock=fake_clock([0.0, 2.0, 5.0, 6.0]))

    def square(x):
        if x < 0:
            raise ValueError("negative")
        return x * x

    traced = tr.wrap(square, "m.square", note=lambda a, k, r: {"out": r})
    assert traced(3) == 9
    with pytest.raises(ValueError):
        traced(-1)
    st = tr.stats["m.square"]
    assert st.calls == 2
    assert st.durations == [2.0, 1.0]
    assert st.notes == {"out": [9]}
    assert tr.stack == []


def test_instrumented_wraps_where_callers_look_up_and_restores():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in targets(gq)}
    assert (gq.operators, "eigh") in originals
    assert (gq.variational, "powell_minimize") in originals
    assert (gq.harness, "optimize_qaoa") in originals
    assert (gq.evolution, "build_sbo") in originals
    tr = Tracer()
    with Instrumented(gq, tr):
        assert gq.operators.eigh is not originals[(gq.operators, "eigh")]
        inst = gq.IsingInstance(n=2, couplings={(1, 2): 1.0})
        problem = gq.QaoaProblem(inst, gq.CostKind.sbo(1.0), "full", 3)
        problem.objective(np.linspace(0.1, 0.6, 6))
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert tr.stats["eigensolver.eigh"].notes["dim"] == [4.0]
    assert tr.stats["evolution.objective"].notes["layers"] == [3.0]
    assert tr.stats["evolution.build"].calls == 1
    # the eigendecomposition runs inside the simulator build
    build = tr.stats["evolution.build"]
    assert build.self_s < build.total_s


def test_layer_metrics_per_repetition_and_overhead():
    tr = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 4.0]))
    tr.enter("evolution.objective")
    tr.exit()
    tr.stats["evolution.objective"].notes["layers"] = [100.0]
    tr.enter("ising.energy_table")
    tr.exit()
    m = layer_metrics([tr], traced_walls=[4.0], untraced_walls=[3.2])
    assert m["evolution.objective.calls"] == 1
    assert m["evolution.layer_us"] == pytest.approx(1e4)
    assert m["evolution.share"] == pytest.approx(0.25)
    assert m["ising.share"] == pytest.approx(0.5)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.uncovered_s"] == pytest.approx(1.0)
