"""The span recorder: self time, nesting, request ids."""

import asyncio

from perfbench.spans import Tracer, fold, patch, self_times


def test_self_time_on_a_synthetic_nested_trace():
    # root 0..100 with children 10..30 and 20..50 (overlapping: their
    # union is 10..50), 60..70, and one child poking past the root's end;
    # a grandchild 12..18 inside the first child.
    spans = [
        (1, None, 7, "root", 0, 100),
        (2, 1, 7, "child", 10, 30),
        (3, 1, 7, "child", 20, 50),
        (4, 1, 7, "child", 60, 70),
        (5, 1, 7, "child", 95, 120),
        (6, 2, 7, "grandchild", 12, 18),
    ]
    own = self_times(spans)
    assert own[1] == 100 - (40 + 10 + 5)
    assert own[2] == 20 - 6
    assert own[3] == 30
    assert own[6] == 6
    stats = fold(spans)
    assert stats["child"].calls == 4
    assert stats["child"].total_ns == 20 + 30 + 10 + 25
    assert stats["child"].self_ns == 14 + 30 + 10 + 25
    assert stats["root"].self_mean_us == 45 / 1e3


def test_wrapped_calls_nest_and_inherit_the_request_id():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_t = tracer.wrap("inner", inner)

    async def outer(req_id, x):
        await asyncio.sleep(0)
        return inner_t(x)

    outer_t = tracer.wrap("outer", outer, req_id_of=lambda req, x: req)
    tracer.active = True
    assert asyncio.run(outer_t(42, 1)) == 2
    (inner_span, outer_span) = tracer.spans
    assert inner_span[3] == "inner" and outer_span[3] == "outer"
    assert inner_span[1] == outer_span[0]   # parent link
    assert inner_span[2] == outer_span[2] == 42
    assert outer_span[1] is None


def test_patched_method_records_only_while_active():
    class Target:
        def work(self):
            return "done"

    tracer = Tracer()
    patch(tracer, [(Target, "work", "target.work")])
    assert Target().work() == "done"
    assert tracer.spans == []
    tracer.active = True
    assert Target().work() == "done"
    assert [s[3] for s in tracer.spans] == ["target.work"]
