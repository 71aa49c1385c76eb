"""Worker-local storage with write-behind shipping to the master.

In the simulator every processor writes into one shared
:class:`VersionedStore` object.  A live worker cannot: its store dies
with its process.  So each worker keeps a local :class:`WorkerStore`
(same semantics, used for all its own reads — fork snapshots, recovery
walks, branch materialisation touch only vertices the worker owns and
therefore wrote itself) and journals every put.  :class:`LiveBackend`
ships the journal to the master as a :class:`~repro.live.wire.StoreWrite`
at flush time, *before* the progress reports of the same flush — the
queues are FIFO, so the master's manifest always records a flush before
it sees the progress that depends on it (the paper's durability
invariant, preserved across the process boundary).

Version writes are idempotent (keyed by iteration), so a StoreWrite from
a worker that later crashed is harmless: re-applied versions overwrite
themselves, and the max-iteration read discipline picks the newest.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.storage.backends import StorageBackend
from repro.storage.versioned import VersionedStore


class WorkerStore(VersionedStore):
    """A VersionedStore that journals every write for shipping."""

    def __init__(self) -> None:
        super().__init__()
        self._journal: list[tuple[str, Any, int, Any]] = []
        self._recording = True

    def put(self, loop: str, key: Any, iteration: int, value: Any) -> None:
        super().put(loop, key, iteration, value)
        if self._recording:
            self._journal.append((loop, key, iteration, value))

    def put_many(self, loop: str,
                 items: Iterable[tuple[Any, int, Any]]) -> int:
        items = list(items)
        count = super().put_many(loop, items)
        if self._recording:
            self._journal.extend((loop, key, iteration, value)
                                 for key, iteration, value in items)
        return count

    def take_journal(self) -> list[tuple[str, Any, int, Any]]:
        journal = self._journal
        self._journal = []
        return journal

    def hydrate(self, entries: Iterable[tuple[str, Any, int, Any]]) -> int:
        """Re-seed from a master :class:`StoreLoad` dump without
        journaling (the master already has these versions)."""
        self._recording = False
        count = 0
        try:
            for loop, key, iteration, value in entries:
                super().put(loop, key, iteration, value)
                count += 1
        finally:
            self._recording = True
        return count


class LiveBackend(StorageBackend):
    """StorageBackend whose durability is the master's store.

    ``flush`` ships the journal as a StoreWrite control frame and
    completes synchronously: once the frame is on the FIFO queue it is
    ordered before everything the worker sends afterwards, which is the
    only property the runtime's flush-before-report discipline needs.
    """

    def __init__(self, store: WorkerStore, net: Any, owner: str) -> None:
        self.store = store
        self.net = net
        self.owner = owner
        self.flushes = 0
        self.records_flushed = 0

    def flush(self, n_records: int, callback: Any, *args: Any) -> None:
        from repro.live.wire import StoreWrite

        entries = tuple(self.store.take_journal())
        # The processor passes (snapshots, frontiers) through the flush;
        # the frontiers ride the StoreWrite so the *master* can record
        # the durable-iteration manifest the simulator's processors wrote
        # into shared memory.
        frontiers = args[1] if len(args) > 1 else ()
        self.flushes += 1
        self.records_flushed += len(entries)
        if entries or frontiers:
            self.net.send_control(StoreWrite(
                self.owner, self.flushes, entries, tuple(frontiers)))
        callback(*args)

    def read(self, n_records: int, callback: Any, *args: Any) -> None:
        callback(*args)
