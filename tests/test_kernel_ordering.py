"""Event-order properties of the simulator's two lanes and the run loop.

The kernel keeps timed events in a ``(time, seq, event)`` heap and zero-delay
resumptions in a FIFO ready lane; both draw ``seq`` from one counter.  These
properties pin that the merge of the two lanes fires exactly in the
``(time, seq)`` order a single heap would, with cancellations (enough to
force heap compaction) skipped and never counted as live work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.node import NodeSpec
from repro.cluster.simulator import Kernel


@settings(max_examples=60, deadline=None)
@given(
    preload=st.lists(st.integers(0, 30), min_size=70, max_size=160),
    keep=st.integers(0, 6),
    ops=st.lists(
        st.tuples(st.sampled_from(("push", "cancel", "pop")), st.integers(0, 10_000)),
        max_size=200,
    ),
)
def test_queue_pops_live_events_in_time_seq_order(preload, keep, ops):
    queue = EventQueue()
    events = []
    live = {}  # id(event) -> event

    def push(time):
        event = queue.push(float(time), lambda: None)
        events.append(event)
        live[id(event)] = event

    def check_counts():
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)

    for time in preload:
        push(time)
    # Cancel all but a few preloaded events: enough garbage to compact.
    for event in events[keep:]:
        event.cancel()
        del live[id(event)]
    assert queue.compactions >= 1
    check_counts()

    clock = 0.0
    for op, arg in ops:
        if op == "push":
            push(clock + arg % 30)
        elif op == "cancel" and events:
            event = events[arg % len(events)]
            event.cancel()  # a no-op on popped or already-cancelled events
            live.pop(id(event), None)
        elif op == "pop":
            want = min(live.values(), key=lambda e: (e.time, e.seq), default=None)
            got = queue.pop()
            assert got is want
            if got is not None:
                del live[id(got)]
                clock = got.time
        check_counts()

    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == sorted(live.values(), key=lambda e: (e.time, e.seq))
    assert queue.pop() is None and len(queue) == 0


#: Script operations: a timer after a delay (0 makes a heap entry at ``now``),
#: a cancellation, a zero-work compute and a spawn (both ready-lane entries),
#: a sleep, and a burst of timers nearly all cancelled at once.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timer"), st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("zero"), st.just(0)),
        st.tuples(st.just("spawn"), st.just(0)),
        st.tuples(st.just("sleep"), st.integers(0, 2)),
        st.tuples(st.just("burst"), st.integers(0, 2)),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_kernel_fires_heap_and_ready_lane_in_time_seq_order(ops):
    kernel = Kernel(network=NetworkModel.instantaneous())
    kernel.add_node(NodeSpec("n0", cores=1))
    order = iter(range(10**9))  # the test-visible scheduling order
    fired = []  # (due time, scheduling order) at each firing
    timers = []  # (event, key) of every timer scheduled
    cancelled = set()
    expected = []

    def timer(delay):
        key = (kernel.now + delay, next(order))
        timers.append((kernel.schedule_after(delay, on_timer, key), key))
        expected.append(key)

    def on_timer(key):
        assert kernel.now == key[0]
        fired.append(key)

    def helper(ctx, key):
        assert ctx.now == key[0]
        fired.append(key)
        return
        yield  # pragma: no cover - makes this a generator

    def script(ctx):
        spawned = 0
        for op, arg in ops:
            if op == "timer":
                timer(arg)
            elif op == "cancel" and timers:
                event, key = timers[arg % len(timers)]
                if key not in cancelled and key not in fired:
                    event.cancel()
                    cancelled.add(key)
            elif op == "burst":
                start = len(timers)
                for _ in range(200):
                    timer(arg)
                for event, key in timers[start + 4:]:
                    event.cancel()
                    cancelled.add(key)
            elif op == "spawn":
                key = (ctx.now, next(order))
                expected.append(key)
                spawned += 1
                kernel.spawn(f"helper-{spawned}", "n0", helper, key)
            else:  # the script itself waits: a ready entry or a timed one
                key = (ctx.now + arg if op == "sleep" else ctx.now, next(order))
                expected.append(key)
                yield ctx.sleep(arg) if op == "sleep" else ctx.compute(0)
                assert ctx.now == key[0]
                fired.append(key)

    kernel.spawn("script", "n0", script)
    kernel.run()
    assert kernel.all_finished()
    live = sorted(key for key in expected if key not in cancelled)
    assert fired == live
    assert not kernel.queue and len(kernel.queue) == 0
    stats = kernel.stats()
    assert stats.events_cancelled == len(cancelled)
    assert stats.events_fired == stats.events_scheduled - stats.events_cancelled
    if any(op == "burst" for op, _ in ops):
        assert stats.compactions >= 1


class TestRunUntilTime:
    def test_until_time_before_now_is_rejected(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_at(5.0, fired.append, 5.0)
        kernel.schedule_at(7.0, fired.append, 7.0)
        assert kernel.run(until_time=6.0) == 6.0
        with pytest.raises(ValueError, match="before the current time"):
            kernel.run(until_time=2.0)
        # The clock did not rewind: nothing can be scheduled before 6.0.
        assert kernel.now == 6.0
        with pytest.raises(ValueError):
            kernel.schedule_at(3.0, fired.append, 3.0)
        kernel.run()
        assert fired == [5.0, 7.0]

    def test_until_time_equal_to_now_is_a_no_op(self):
        kernel = Kernel()
        kernel.schedule_at(5.0, lambda: None)
        kernel.run(until_time=2.0)
        assert kernel.run(until_time=2.0) == 2.0
        assert kernel.stats().events_fired == 0
