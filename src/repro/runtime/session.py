"""Transactional sessions and snapshot readers.

A :class:`Session` groups statements into one store transaction: writes
from successive :meth:`Session.run` calls accumulate in a single
always-recording :class:`~repro.graph.store.StoreTransaction` and become
visible atomically — one version bump — at :meth:`Session.commit`, or
vanish exactly at :meth:`Session.rollback` (the undo log restores the
store, its statistics, scan caches and every property index to the
rebuild-identical pre-``begin()`` state).

Isolation is *read committed* for the session's own reads — statements
inside the transaction see their own uncommitted writes (the store is
mutated in place; the undo log is what makes rollback exact) — while
:meth:`Session.snapshot` hands out a *snapshot isolation* reader: a
pinned :class:`~repro.graph.snapshot.VersionPin` preserves pre-images
copy-on-write, so the snapshot keeps answering from the version current
when it was taken even while this or another session commits on top.

Sessions hold one admission slot on the engine from first use until
:meth:`Session.close`; the engine's bounded gate turns overload into
:class:`~repro.exceptions.EngineOverloadedError` instead of unbounded
queueing.
"""

from __future__ import annotations

from repro.exceptions import TransactionError


class Session:
    """One client's transactional conversation with a CypherEngine.

    Usable as a context manager::

        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Person {name: 'Ada'})")
            session.run("MATCH (p:Person) SET p.seen = true")
            session.commit()

    Leaving the ``with`` block with the transaction still open rolls it
    back — commits are always explicit.  Statements run outside
    ``begin()``/``commit()`` auto-commit individually, exactly like
    ``engine.run``.
    """

    def __init__(self, engine, default_timeout=None):
        self.engine = engine
        self.graph = engine.graph
        self.default_timeout = default_timeout
        self._admitted = False
        self._closed = False
        self._snapshot = None
        self._in_transaction = False

    # -- lifecycle -------------------------------------------------------

    def __enter__(self):
        self._admit()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()

    def _admit(self):
        if self._closed:
            raise TransactionError("session is closed")
        if not self._admitted:
            self.engine._admit_session()
            self._admitted = True

    def close(self):
        """Roll back any open transaction and release the admission slot."""
        if self._closed:
            return
        try:
            if self._in_transaction:
                self.rollback()
            self._release_snapshot()
        finally:
            self._closed = True
            if self._admitted:
                self._admitted = False
                self.engine._release_session()

    # -- transaction control ---------------------------------------------

    @property
    def in_transaction(self):
        return self._in_transaction

    def begin(self):
        """Open an explicit transaction spanning subsequent statements."""
        self._admit()
        if self._in_transaction:
            raise TransactionError("transaction already begun on this session")
        self._in_transaction = True
        return self

    def commit(self):
        """Flush the transaction's changes; one version bump, atomically.

        A commit-time failure (for example an injected fault in the
        flush) rolls the whole transaction back before re-raising: the
        engine stays usable and the store unchanged.
        """
        transaction = self._require_transaction()
        if transaction is None:  # no statement ever wrote: nothing to flush
            self._end_transaction()
            return
        try:
            transaction.commit()
        except BaseException:
            if not transaction.closed:
                transaction.rollback()
            self._end_transaction()
            raise
        self._end_transaction()

    def rollback(self):
        """Undo every statement since :meth:`begin`, exactly."""
        transaction = self._require_transaction()
        if transaction is None:  # no statement ever wrote: nothing to undo
            self._end_transaction()
            return
        try:
            transaction.rollback()
        finally:
            self._end_transaction()

    def _require_transaction(self):
        if not self._in_transaction:
            raise TransactionError("no transaction begun on this session")
        return self.graph.active_session_transaction(self)

    def _end_transaction(self):
        if self._snapshot is not None and self._snapshot.transactional:
            self._release_snapshot()
        self._in_transaction = False

    # -- statements ------------------------------------------------------

    def run(self, query_text, parameters=None, **options):
        """Run one statement; inside a transaction, joins it.

        Accepts the same keyword options as ``engine.run``
        (``timeout``, ``deadline``, ``cancel``, ``mode``, ``profile``);
        ``timeout`` defaults to the session's ``default_timeout``.  The
        statement is atomic, like every statement: if it raises — an
        error, its timeout, a schema refusal — its own changes unwind
        and earlier statements of the transaction survive for the
        eventual commit or rollback.
        """
        self._admit()
        if options.get("timeout") is None:
            options["timeout"] = self.default_timeout
        if not self._in_transaction:
            return self.engine.run(query_text, parameters, **options)
        self.graph.enter_session_scope(self)
        try:
            return self.engine.run(query_text, parameters, **options)
        finally:
            self.graph.exit_session_scope()

    # -- snapshot readers -------------------------------------------------

    def snapshot(self):
        """A read-only view pinned to the current committed version.

        The view stays stable while this or other sessions commit —
        later mutations preserve their pre-images into the pin
        copy-on-write, so pinning costs nothing up front and writers
        only pay while a snapshot is actually live.  Inside a
        transaction, take the snapshot *before* the first write: it
        then observes the version current at :meth:`begin` (our own
        uncommitted writes are invisible to it by construction), and
        pinning after uncommitted changes exist is refused by the store
        — a snapshot must correspond to a committed version.  A
        transactional snapshot is released when its transaction ends;
        one taken outside lives until the session closes.
        """
        self._admit()
        if self._snapshot is None:
            pin = self.graph.pin_version()
            self._snapshot = Snapshot(self, pin, self._in_transaction)
        return self._snapshot

    def _release_snapshot(self):
        snapshot = self._snapshot
        if snapshot is not None:
            self.graph.release_pin(snapshot.pin)
            if snapshot._view is not None:
                # Its parked pipelines reference the view: drop them now
                # rather than leave the cycle to the collector.
                snapshot._view.parked_pipelines.clear()
            self._snapshot = None


class Snapshot:
    """A read-only view of one pinned store version.

    Reads run on the parent engine — its modes, knobs and shared plan
    cache — against :attr:`graph`: the live store itself while the pin
    is clean, and a :class:`~repro.graph.snapshot.SnapshotGraph` once
    the store has diverged.  The view answers with the live store's
    indexes, delta-corrected, so a dirty pin costs a live read plus
    O(|entities mutated since the pin|) and never re-plans a cached
    text.

    Once the pin is released — the session closed, or the transaction
    a transactional snapshot belonged to ended — mutations are no
    longer preserved for it, so reads raise :class:`TransactionError`
    rather than answer from the wrong version.
    """

    def __init__(self, session, pin, transactional=False):
        self.session = session
        self.pin = pin
        #: Taken inside a transaction: released when that transaction
        #: ends (commit or rollback), not at session close.
        self.transactional = transactional
        self._view = None

    @property
    def version(self):
        return self.pin.version

    @property
    def graph(self):
        """The graph this snapshot currently reads from."""
        pin = self.pin
        if pin.released:
            raise TransactionError("snapshot released")
        if pin.clean:
            return self.session.graph
        if self._view is None:
            from repro.graph.snapshot import SnapshotGraph

            self._view = SnapshotGraph(pin)
        return self._view

    def run(self, query_text, parameters=None, **options):
        """Run a read-only statement against the pinned version."""
        graph = self.graph
        engine = self.session.engine
        if graph is engine.graph:
            engine.snapshot_clean_reads += 1
        else:
            engine.snapshot_dirty_reads += 1
        options["read_only"] = True
        return engine._run_on(graph, query_text, parameters, **options)
