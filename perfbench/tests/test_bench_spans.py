"""Self-time arithmetic and the tracer's patching, on hand-built spans and a
tiny untrained model."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import env  # noqa: E402
from spans import Span, Tracer, layer_stats, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_once():
    # root [0,100]: children a [10,30] and b [25,50] overlap, c [60,70];
    # a's grandchild g [12,20] lies inside a and must not count against root
    tree = [
        Span("root", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("g", 12, 20, 1),
        Span("b", 25, 50, 0),
        Span("c", 60, 70, 0),
    ]
    assert self_times(tree) == [100 - 40 - 10, 20 - 8, 8, 25, 10]


def test_child_outside_parent_is_clipped():
    tree = [Span("p", 0, 10, -1), Span("c", 5, 20, 0), Span("late", 30, 40, 0)]
    assert self_times(tree) == [5, 15, 10]


def test_layer_stats_aggregates_by_name():
    tree = [
        Span("f", 0, 1000, -1),
        Span("g", 100, 300, 0),
        Span("f", 2000, 2500, -1),
        Span("g", 2100, 2200, 2),
    ]
    stats = layer_stats(tree)
    assert stats["f"].calls == 2 and stats["g"].calls == 2
    assert stats["f"].total_s == 1500 / 1e9
    assert stats["f"].self_s == (800 + 400) / 1e9
    assert stats["f"].self_us == (0.8, 0.4)
    assert stats["g"].self_s == stats["g"].total_s == 300 / 1e9


def test_tracer_nests_spans_and_restores_functions():
    nf = env.import_package()
    model = nf.build_model("lenet1")
    x = nf.Tensor.zeros(model.input_shape)
    original_predict, original_wrap = nf.nn.predict, nf.tensor.Tensor.wrap

    tracer = Tracer()
    tracer.install()
    try:
        nf.nn.predict(model, x)
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()

    assert nf.nn.predict is original_predict
    assert nf.tensor.Tensor.wrap is original_wrap
    assert spans[0].name == "nn.predict" and spans[0].parent == -1
    wraps = [s for s in spans if s.name == "tensor.wrap"]
    assert len(wraps) == len(model.layers)
    assert all(s.parent == 0 for s in wraps)
