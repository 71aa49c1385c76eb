"""Property test: the kernel (timer wheel merged with the heap, tombstone
compaction, same-instant message coalescing) fires callbacks in exactly
the (time, seq) order of a plain lazy-cancel heap, including interleaved
cancellations.  The reference is a small in-test scheduler, so the
oracle does not depend on any second kernel implementation."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Actor, Network, Simulator

#: Fixed delay classes — one per wheel spoke.  0.5 collides on purpose
#: with the event-delay choices and the network latency below, so ties
#: between heap events, wheel timers and coalesced deliveries at the
#: exact same instant are exercised.
_DELAYS = (0.02, 0.5, 30.0)
_EVENT_DELAYS = (0.0, 0.01, 0.02, 0.5, 1.25)
_NET_LATENCY = 0.5

# A program interleaves: scheduling a wheel timer, scheduling a plain
# heap event, sending a network message (a coalescing candidate),
# cancelling one of the handles created so far, and advancing the clock
# (which fires whatever is due, so later ops happen at a later now).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timer"), st.integers(0, len(_DELAYS) - 1)),
        st.tuples(st.just("event"),
                  st.integers(0, len(_EVENT_DELAYS) - 1)),
        st.tuples(st.just("send"), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.001, max_value=1.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    min_size=1, max_size=120)


class _Recorder(Actor):
    """Sink that logs each message the instant the network delivers it
    (no mailbox, so delivery order itself is what the log shows)."""

    def __init__(self, sim, name, fired):
        super().__init__(sim, name)
        self._fired = fired

    def deliver(self, message, sender):
        self._fired.append(("recv", self.sim.now, message))


def _execute(ops):
    """Run one program on a fresh kernel; return the full firing log."""
    sim = Simulator(seed=3)
    network = Network(sim, latency=_NET_LATENCY)
    fired = []
    _Recorder(sim, "src", fired)
    _Recorder(sim, "sink", fired)
    handles = []

    def fire(tag, index):
        fired.append((tag, sim.now, index))

    for index, (op, value) in enumerate(ops):
        if op == "timer":
            handles.append(
                sim.schedule_timer(_DELAYS[value], fire, "timer", index))
        elif op == "event":
            handles.append(
                sim.schedule(_EVENT_DELAYS[value], fire, "event", index))
        elif op == "send":
            network.send("src", "sink", index)
        elif op == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        else:  # advance
            sim.run(until=sim.now + value)
    sim.run()
    # A drained kernel reports zero live units.
    assert sim.pending_events == 0
    return fired, sim.events_processed, sim.now


def _reference(ops):
    """The same program on a heap of ``[time, seq, callback, args,
    cancelled]`` entries with lazy cancel; a send is an event at
    ``now + latency``."""
    heap, fired, handles = [], [], []
    state = {"now": 0.0, "seq": 0, "events": 0}

    def push(time, callback, *args):
        entry = [time, state["seq"], callback, args, False]
        state["seq"] += 1
        heapq.heappush(heap, entry)
        return entry

    def fire(tag, index):
        fired.append((tag, state["now"], index))

    def run(until=None):
        while heap:
            if heap[0][4]:
                heapq.heappop(heap)
                continue
            if until is not None and heap[0][0] > until:
                state["now"] = until
                return
            time, _seq, callback, args, _ = heapq.heappop(heap)
            state["now"] = time
            state["events"] += 1
            callback(*args)

    for index, (op, value) in enumerate(ops):
        now = state["now"]
        if op == "timer":
            handles.append(push(now + _DELAYS[value], fire, "timer", index))
        elif op == "event":
            handles.append(
                push(now + _EVENT_DELAYS[value], fire, "event", index))
        elif op == "send":
            push(now + _NET_LATENCY, fire, "recv", index)
        elif op == "cancel":
            if handles:
                handles[value % len(handles)][4] = True
        else:  # advance
            run(until=now + value)
    run()
    return fired, state["events"], state["now"]


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_kernel_fires_like_reference_heap(ops):
    assert _execute(ops) == _reference(ops)
