"""Self-time arithmetic, layer wrapping and import-time parsing."""

import pytest

import layers
from repro.obs.tracing import Tracer


def _node(name, duration, *children):
    node = {"name": name, "start_s": 0.0, "duration_s": duration}
    if children:
        node["children"] = list(children)
    return node


def test_self_time_subtracts_direct_children_only():
    forest = [_node("perfbench.w", 10.0,
                    _node("transient.simulate", 6.0,
                          _node("stampplan.iterate", 4.0,
                                _node("sparse.refactor", 1.5),
                                _node("sparse.solve", 0.5)),
                          _node("stampplan.iterate", 1.0)),
                    _node("variability.build", 3.0))]
    stats = layers.SpanStats(forest)
    assert stats.own("transient.simulate") == pytest.approx(1.0)
    assert stats.own("stampplan.iterate") == pytest.approx(2.0 + 1.0)
    assert stats.incl("stampplan.iterate") == pytest.approx(5.0)
    assert stats.n("stampplan.iterate") == 2
    assert stats.own("sparse.refactor") == pytest.approx(1.5)
    values = layers.layer_metrics(forest, [], [], {})
    assert values["trace.unattributed_frac"] == pytest.approx(0.1)
    assert values["stampplan.us_per_iterate"] == pytest.approx(1.5e6)
    # Every second of the root lands in exactly one span's self time.
    total_self = sum(stats.self_s.values())
    assert total_self == pytest.approx(10.0)


def test_nested_wrappers_record_consistent_self_time():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_leaf = layers._wrap(leaf, "sparse.solve", tracer, None)
    wrapped_middle = layers._wrap(middle, "stampplan.iterate", tracer, None)
    with tracer.span("perfbench.test"):
        for _ in range(3):
            wrapped_middle(20_000)
    forest = tracer.to_dict()
    stats = layers.SpanStats(forest)
    assert stats.n("stampplan.iterate") == 3
    assert stats.n("sparse.solve") == 6
    root = forest[0]["duration_s"]
    assert sum(stats.self_s.values()) == pytest.approx(root, rel=1e-9)
    assert stats.own("stampplan.iterate") == pytest.approx(
        stats.incl("stampplan.iterate") - stats.incl("sparse.solve"),
        rel=1e-9)


def test_untouched_layers_are_absent_not_zero():
    forest = [_node("perfbench.w", 2.0, _node("checkpoint.save", 1.0))]
    values = layers.layer_metrics(forest, [(1.1, 1.0)], [0.002],
                                  {"cli.import_s": 1.0})
    assert set(values) == set(layers.METRICS)
    assert values["checkpoint.saves"] == 1
    assert values["sparse.refactors"] is None
    assert values["stampplan.us_per_iterate"] is None
    assert values["cli.headline.warm_s"] is None
    assert values["trace.overhead_frac"] == pytest.approx(0.1)


def test_patches_wrap_every_binding_and_restore_it():
    import repro.spice.batch as batch
    import repro.spice.transient as transient
    original = transient.simulate_transient
    tracer = Tracer()
    with layers.LayerPatches(tracer):
        assert batch.simulate_transient is transient.simulate_transient
        assert batch.simulate_transient.__wrapped__ is original
    assert batch.simulate_transient is original
    assert transient.simulate_transient is original


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings
import time:       300 |        300 |       scipy._lib
import time:       200 |        500 |     scipy.linalg
import time:        50 |         50 |       repro.spice.linalg
import time:       400 |       1000 |     repro.spice
import time:       500 |       2000 |   repro
import time:       700 |        700 |   repro.cli
"""


def test_parse_importtime_takes_outermost_entries():
    values = layers.parse_importtime(IMPORTTIME)
    assert values["cli.import_s"] == pytest.approx(2700e-6)
    assert values["cli.import.scipy_s"] == pytest.approx(500e-6)
    assert values["cli.import.spice_s"] == pytest.approx(1000e-6)
