"""Span arithmetic on a synthetic call tree with a fake clock."""

import sys
import types

import pytest

from benchmarks.suite import spans
from benchmarks.suite.spans import Boundary, Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake(monkeypatch):
    """A two-module package: ``fakepkg.b`` re-imports ``fakepkg.a.leaf`` by name."""
    clock = Clock()
    monkeypatch.setattr(spans, "perf_counter", clock)

    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def touch_page():  # a hot boundary: 1 time unit
        clock.now += 1.0

    def leaf():  # 2 own + one page
        clock.now += 2.0
        a.Store.page()
        return ["t1", "t2", "t3"]

    class Store:
        page = staticmethod(touch_page)

        @classmethod
        def make(cls):
            clock.now += 4.0
            return cls()

        def rows(self):
            for item in range(3):
                Store.page()
                yield item

    def root():  # 3 own + leaf called through b's re-imported name + make
        clock.now += 3.0
        b.leaf()
        Store.make()
        return list(Store().rows())

    a.leaf, a.root, a.Store = leaf, root, Store
    b.leaf = leaf  # from fakepkg.a import leaf
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.a", a)
    monkeypatch.setitem(sys.modules, "fakepkg.b", b)
    return a, b, clock


BOUNDARIES = [
    Boundary("api.root", "fakepkg.a:root"),
    Boundary("core.leaf", "fakepkg.a:leaf", count=len),
    Boundary("engine.make", "fakepkg.a:Store.make"),
    Boundary("storage.page", "fakepkg.a:Store.page", "hot"),
    Boundary("storage.rows", "fakepkg.a:Store.rows", "generator"),
    Boundary("gone.fn", "fakepkg.a:deleted_by_a_later_pr"),
    Boundary("gone.module", "fakepkg.nowhere:fn"),
]


def test_self_time_is_duration_minus_children_minus_hot(fake):
    a, b, _clock = fake
    original_leaf = a.leaf
    tracer = Tracer(prefix="fakepkg")
    tracer.install(BOUNDARIES)
    try:
        assert b.leaf is a.leaf is not original_leaf  # rebound in both modules
        assert a.root() == [0, 1, 2]
        a.root()
    finally:
        tracer.uninstall()
    assert a.leaf is original_leaf and b.leaf is original_leaf
    assert tracer.missing == ["gone.fn", "gone.module"]
    assert tracer.statements == 2

    totals = spans.aggregate(tracer.spans)
    # root: 3 own + leaf (2 + 1 page) + make 4 + 3 pages drained in root = 13
    assert totals["api.root"].calls == 2
    assert totals["api.root"].total == pytest.approx(26.0)
    assert totals["api.root"].self_time == pytest.approx(6.0)  # 3 per call
    assert totals["core.leaf"].total == pytest.approx(6.0)
    assert totals["core.leaf"].self_time == pytest.approx(4.0)  # page is hot time
    assert totals["core.leaf"].count == 6  # len() of the return value, twice
    assert totals["engine.make"].self_time == pytest.approx(8.0)
    assert tracer.hot["storage.page"].calls == 8
    assert tracer.hot["storage.page"].seconds == pytest.approx(8.0)
    # the generator: 2 calls, 3 pages each while being drained
    assert tracer.drained["storage.rows"] == [2, 6]
    # self times plus hot time add up to the root spans' durations
    own = sum(spans.self_times(tracer.spans))
    hot = sum(record[spans.HOT] for record in tracer.spans)
    assert own + hot == pytest.approx(26.0)
    # statement ids and parents
    assert [r[spans.STMT] for r in tracer.spans] == [0, 0, 0, 1, 1, 1]
    assert [r[spans.PARENT] for r in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert spans.has_ancestor(tracer.spans, 1, "api.root")
    assert not spans.has_ancestor(tracer.spans, 0, "api.root")


def test_untraced_code_never_touches_the_span_table(fake):
    a, _b, _clock = fake
    tracer = Tracer(prefix="fakepkg")
    a.root()
    assert tracer.spans == [] and tracer.hot == {}


def test_span_trees_are_a_bounded_sample(fake):
    a, _b, _clock = fake
    tracer = Tracer(prefix="fakepkg")
    tracer.install(BOUNDARIES)
    try:
        for _ in range(5):
            a.root()
    finally:
        tracer.uninstall()
    trees = spans.span_trees(tracer.spans, 2)
    assert len(trees) == 2
    assert [node["name"] for node in trees[0]] == ["api.root", "core.leaf", "engine.make"]
    assert trees[1][0]["start_ms"] == 0.0
