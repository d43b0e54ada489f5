"""The benchmark's tracer (bench/tracing.py) wraps library attributes by
name.  Installing it here fails on an attribute that was renamed or
deleted, such as fuchs.rep_distance, FuchsianSystem.A_of or
wznw._WebRegion.z, which nothing else in the package reads; one traced
fixture action must show kernel calls and web nodes."""

from pathlib import Path

from rhwznw import verify, wznw

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_sees_the_fixture_action(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        wznw.action_regularized(verify.rigid_fixture_field())
        tracer.end_op()
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics([0])
    assert m["fuchs.transport.calls"] > 0
    assert m["wznw.web_nodes"] > 0
