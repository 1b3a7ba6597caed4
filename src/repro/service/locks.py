"""Striped per-key locking for :class:`~repro.service.core.StoreService`.

The PR-5 service serialized every operation behind one global ``RLock``, so
concurrent sweep hosts doing lookups on *distinct* keys queued behind each
other — reads of unrelated cache entries cost a full store round trip each,
one at a time.  :class:`KeyedLocks` replaces that with two layers:

* a fixed pool of **stripe locks** — each key hashes to one stripe, so
  operations on distinct keys (almost always distinct stripes) proceed in
  parallel while two racing writers of the *same* key still serialize;
* a **store-wide gate** — per-key operations enter it in shared mode,
  store-wide operations (``evict``/``clear``/``stats``…) take it
  exclusively, stopping the world so cap enforcement and snapshots see a
  frozen store.

The gate is writer-preferring: once an exclusive caller is waiting, new
shared entries queue behind it, so a steady read stream cannot starve
eviction.  Stripe locks are reentrant (``RLock``).  ``stripes=1``
degenerates to the old global-lock behaviour — the concurrency benchmark
uses exactly that as its baseline.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from typing import Iterator

__all__ = ["KeyedLocks"]

DEFAULT_STRIPES = 64


class KeyedLocks:
    """A striped lock pool with a shared/exclusive store-wide gate.

    Use :meth:`key` (one key) or :meth:`store` (everything) as context
    managers; there is no manual acquire/release surface, so a lock cannot
    leak past its operation.
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self._stripes = tuple(threading.RLock() for _ in range(stripes))
        self._gate = threading.Condition(threading.Lock())
        # Guarded by self._gate: count of active shared holders, whether an
        # exclusive holder is active, and how many exclusive callers wait
        # (writer preference: shared entry blocks while this is non-zero).
        self._shared = 0
        self._exclusive = False
        self._exclusive_waiting = 0

    def __reduce__(self) -> tuple[type, tuple[int]]:
        # Held locks cannot cross a process boundary; a pickled KeyedLocks
        # (e.g. a service riding into a process-pool worker) arrives as a
        # fresh, uncontended pool of the same width.
        return (type(self), (len(self._stripes),))

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def _stripe_for(self, key: str) -> threading.RLock:
        return self._stripes[zlib.crc32(key.encode("utf-8")) % len(self._stripes)]

    def _enter_shared(self) -> None:
        with self._gate:
            while self._exclusive or self._exclusive_waiting:
                self._gate.wait()
            self._shared += 1

    def _exit_shared(self) -> None:
        with self._gate:
            self._shared -= 1
            if self._shared == 0:
                self._gate.notify_all()

    def _enter_exclusive(self) -> None:
        with self._gate:
            self._exclusive_waiting += 1
            try:
                while self._exclusive or self._shared:
                    self._gate.wait()
            finally:
                self._exclusive_waiting -= 1
            self._exclusive = True

    def _exit_exclusive(self) -> None:
        with self._gate:
            self._exclusive = False
            self._gate.notify_all()

    @contextmanager
    def key(self, key: str) -> Iterator[None]:
        """Hold the stripe for ``key`` (shared gate): per-key operations."""
        self._enter_shared()
        try:
            with self._stripe_for(key):
                yield
        finally:
            self._exit_shared()

    @contextmanager
    def store(self) -> Iterator[None]:
        """Hold the whole store exclusively: eviction, clear, snapshots."""
        self._enter_exclusive()
        try:
            yield
        finally:
            self._exit_exclusive()
