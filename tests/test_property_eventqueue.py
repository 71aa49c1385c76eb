"""Property test: EventQueue pops strictly in (time, seq) order under
interleaved pushes and lazy cancellations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import EventQueue

# A program is a list of operations: ("push", time), ("cancel", index)
# where index selects one of the previously pushed events, or ("pop", _).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=1, max_size=200)


def _live_min(queue):
    """Oracle: the (time, seq) the next pop must return, or None."""
    live = [e for _time, _seq, e in queue._heap if not e.cancelled]
    return min(((e.time, e.seq) for e in live), default=None)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_every_pop_returns_the_live_minimum(ops):
    queue = EventQueue()
    pushed = []
    cancelled = set()
    popped = []

    def pop_checked():
        expected = _live_min(queue)
        event = queue.pop()
        got = None if event is None else (event.time, event.seq)
        assert got == expected
        if event is not None:
            popped.append(event)
        return event

    for op, value in ops:
        if op == "push":
            pushed.append(queue.push(value, lambda: None))
        elif op == "cancel" and pushed:
            target = pushed[value % len(pushed)]
            if any(event.seq == target.seq for event in popped):
                continue  # cancelling an already-served event is moot
            target.cancel()
            cancelled.add(target.seq)
        else:
            pop_checked()
    while pop_checked() is not None:
        pass

    # No cancelled event was ever handed out, and nothing was lost.
    assert all(event.seq not in cancelled for event in popped)
    assert {event.seq for event in popped} == {
        event.seq for event in pushed if event.seq not in cancelled}
    # Cancellation is lazy but popping purges: the heap ends empty.
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=100))
def test_equal_times_pop_in_push_order(times):
    queue = EventQueue()
    order = [queue.push(t, lambda: None) for t in times]
    popped = []
    while (event := queue.pop()) is not None:
        popped.append(event)
    assert [(e.time, e.seq) for e in popped] == sorted(
        (e.time, e.seq) for e in order)
