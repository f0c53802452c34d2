"""The CypherEngine facade."""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict

from repro.exceptions import (
    ConstraintViolation,
    CypherError,
    CypherSyntaxError,
    EngineOverloadedError,
    TransactionError,
    UnsupportedFeature,
)
from repro.graph.catalog import GraphCatalog
from repro.graph.store import MemoryGraph
from repro.parser import (
    LIFTED_PREFIX,
    Parser,
    literal_value,
    parse_query,
    skeleton_of,
    tokenize,
)
from repro.planner import (
    execute_plan,
    execute_plan_batched,
    plan_query,
    plan_supports_batch,
)
from repro.planner.batch import graph_supports_batch
from repro.planner.physical import PIPELINE_STATS
from repro.planner.planning import footprint_counts, plan_statistics_footprint
from repro.runtime.cancel import Cancellation
from repro.runtime.result import QueryResult
from repro.semantics.analysis import check_query
from repro.semantics.morphism import EDGE_ISOMORPHISM
from repro.semantics.query import QueryState, run_statement

#: The execution modes :class:`CypherEngine` and every ``run`` accept.
MODES = ("auto", "interpreter", "planner", "row", "batch")


def _checked_mode(mode):
    """``mode`` itself, or :class:`ValueError` if it is not in :data:`MODES`."""
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    return mode


def _merged(parameters, lifted):
    """The user's parameters plus the values lifted out of the text."""
    if not parameters:
        return lifted
    merged = dict(parameters)
    merged.update(lifted)
    return merged


class CypherEngine:
    """Runs Cypher queries against a property graph (or graph catalog).

    Parameters
    ----------
    graph:
        The default property graph; a fresh empty :class:`MemoryGraph`
        if omitted.
    catalog:
        Optional :class:`GraphCatalog` for Cypher 10 multi-graph queries;
        one is created around ``graph`` by default.
    mode:
        ``"auto"`` (planner with interpreter fallback), ``"interpreter"``
        or ``"planner"`` (planner required).  Two more planner modes pin
        the *execution* strategy for differential testing: ``"row"``
        forces tuple-at-a-time execution, ``"batch"`` is like
        ``"planner"`` but exists to state the intent explicitly — batch
        execution is the default wherever the batch engine claims the
        plan (reads whose operators all have batch implementations, on a
        store with bulk scan APIs); write plans and their Eager barriers
        always run row-wise.
    morphism:
        Pattern-matching semantics; Cypher 9's edge isomorphism unless
        overridden (Section 8's configurable morphisms).
    morsel_size:
        Rows per batch on the vectorised path (default
        :data:`~repro.planner.batch.DEFAULT_MORSEL_SIZE`).
    max_sessions:
        The admission gate: at most this many sessions in flight at
        once (default 32).
    admission_timeout:
        Seconds a :meth:`session` waits (queued on the gate) for a slot
        before :class:`EngineOverloadedError`; 0 (the default) refuses
        immediately when the engine is full.
    """

    def __init__(
        self,
        graph=None,
        catalog=None,
        mode="auto",
        morphism=EDGE_ISOMORPHISM,
        functions=None,
        schema=None,
        morsel_size=None,
        max_sessions=32,
        admission_timeout=0.0,
    ):
        self.graph = graph if graph is not None else MemoryGraph()
        self.catalog = catalog if catalog is not None else GraphCatalog(self.graph)
        self.mode = _checked_mode(mode)
        self.morphism = morphism
        self.functions = functions
        self.schema = schema
        self.morsel_size = morsel_size
        self.max_sessions = max_sessions
        self.admission_timeout = admission_timeout
        #: Bounded admission: sessions acquire a slot on first use and
        #: queue (up to ``admission_timeout``) when the engine is full.
        self._admission = threading.BoundedSemaphore(max_sessions)
        #: Bounded LRU of compiled plans: key -> [graph id, version,
        #: schema epoch, plan, updating, footprint, counts].  A key has
        #: one of two forms, and one rule says which.  A statement none
        #: of whose literals lift (every parameterised text; ``RETURN
        #: 5``; anything with a backtick) is keyed by its exact **text**
        #: and found before anything is lexed.  A statement that lifts
        #: is keyed by its **shape**: ``(skeleton, texts of the literals
        #: that stayed)`` — the token texts with each literal replaced
        #: by its kind — and its plan reads the lifted values as
        #: parameters, so every text of the shape shares the entry.
        #: Which literals lift is the parser's decision (see
        #: :mod:`repro.parser.parser`) and a function of the skeleton;
        #: ``_shapes`` remembers it per skeleton under the same bound.
        #: Both forms live under the one LRU limit and the one validity
        #: rule that follows.
        #: The *logical* plan embeds no graph data (operators re-read
        #: the store at run time), so a cached plan is always *correct*
        #: on the graph and index set it was planned for; what can go
        #: stale is its *choices*.  The plan object also carries its
        #: parked pipelines — the closure tree the last execution
        #: compiled — and those *are* bound to one store object and one
        #: schema epoch: the executors re-check that on every take (see
        #: ``planner.physical.acquire_pipeline``), and whatever drops an
        #: entry here drops the closures with it, so this cache stays
        #: the only one.  An entry is therefore evicted only when the
        #: store's schema epoch moved (an index the plan names may be
        #: gone, or a new one may serve it) or when a label/type count
        #: in its statistics footprint drifted more than 2x from what
        #: the cost model saw.  Commits, rollbacks and the statement's
        #: own writes merely move the version: the next lookup re-reads
        #: the footprint's O(1) counters and re-stamps the entry.
        self._plan_cache = OrderedDict()
        #: skeleton -> lift mask (per literal ordinal: the parameter
        #: name it becomes, or None), learnt from the first parse of
        #: the shape; LRU under ``_PLAN_CACHE_LIMIT`` like the plans.
        self._shapes = OrderedDict()
        #: Plan-cache counters (observable via plan_cache_info): a hit
        #: skips parsing, analysis and planning — and, when
        #: the exact text was the key, lexing too.  ``lifted_hits``
        #: counts the hits that arrived through a shape key;
        #: ``revalidated`` those that crossed a version bump; the two
        #: ``evicted`` counters say why a known key re-planned.
        self.plan_cache_hits = 0
        self.plan_cache_lifted_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_revalidated = 0
        self.plan_cache_evicted_schema = 0
        self.plan_cache_evicted_drift = 0
        #: Snapshot reads by the state of their pin when they ran
        #: (observable via snapshot_info).
        self.snapshot_clean_reads = 0
        self.snapshot_dirty_reads = 0

    # ------------------------------------------------------------------

    def run(
        self,
        query_text,
        parameters=None,
        mode=None,
        profile=False,
        timeout=None,
        deadline=None,
        cancel=None,
        read_only=False,
    ):
        """Parse and execute ``query_text``; returns a QueryResult.

        With ``profile=True`` a planned execution additionally records
        every scan operator's access path — chosen entry (index vs label
        scan), estimated and actual rows — in
        :attr:`QueryResult.access_paths`.  Profiling adds a per-row
        counter to the scans, so it is off by default; a profiled read
        parks and reuses its own pipeline, and each result holds copies
        of its run's records.

        ``timeout`` (seconds) / ``deadline`` (absolute
        :func:`time.monotonic` timestamp) / ``cancel`` (a
        :class:`~repro.runtime.cancel.CancelToken`) interrupt the
        statement cooperatively: the row engine checks between rows,
        the batch engine at morsel boundaries, and an interrupted
        *write* rolls back atomically before
        :class:`~repro.exceptions.QueryTimeout` /
        :class:`~repro.exceptions.QueryCancelled` propagates.  The
        reference interpreter only checks the deadline at statement
        boundaries (it has no operator loop to thread checks through).

        ``read_only=True`` refuses updating statements with
        :class:`TransactionError` — the guard snapshot readers run
        under.
        """
        return self._run_on(
            self.graph, query_text, parameters, mode, profile, timeout,
            deadline, cancel, read_only,
        )

    def _run_on(
        self, graph, query_text, parameters=None, mode=None, profile=False,
        timeout=None, deadline=None, cancel=None, read_only=False,
    ):
        """:meth:`run` with the executing graph made explicit.

        The one entry :meth:`run` and snapshot readers share.  ``graph``
        is what the operators read: the engine's store, or a
        :class:`~repro.graph.snapshot.SnapshotGraph` view of one of its
        versions.  Plans are always made on the engine's store: plans
        embed no graph data and a view's index set is the store's, so
        the shared plan cache and its validation against the live store
        serve a view unchanged.
        """
        mode = self.mode if mode is None else _checked_mode(mode)
        access_log = [] if profile else None
        cancellation = Cancellation.build(timeout, deadline, cancel)
        if cancellation is not None:
            # Up-front check: an already-expired deadline or
            # pre-cancelled token refuses before any work — the strided
            # in-flight checks would let a short statement slip through.
            cancellation.poll()
        key, lifted, tokens, query = query_text, None, None, None
        if mode != "interpreter":
            cached = self._cached_plan(query_text)
            if cached is None:
                # Only now is the text lexed: a miss either finds its
                # shape's plan or parses the tokens it already has.
                key, lifted, tokens, query = self._lift(
                    query_text, parameters
                )
                if lifted is not None:
                    cached = self._cached_plan(key)
                    if cached is not None:
                        self.plan_cache_lifted_hits += 1
                        parameters = _merged(parameters, lifted)
                if cached is None:
                    self.plan_cache_misses += 1
            if cached is not None:
                plan, updating = cached
                self._check_read_only(updating, read_only)
                return self._execute_planned(
                    graph, plan, parameters, updating, mode, access_log,
                    cancellation,
                )
        plan = None
        if lifted is not None:
            # Plan the shape: literals parsed to parameters, their
            # values in the planner's hand.  Whatever goes wrong here is
            # reported by the literal front end below, so an error reads
            # the same whether or not the statement would have lifted.
            try:
                if query is None:
                    query = Parser(tokens, lift=True).parse_query()
                updating = check_query(query)
                plan = plan_query(
                    query, self.graph, morphism=self.morphism,
                    parameters=lifted,
                )
            except CypherError:
                key, lifted, tokens, query = query_text, None, None, None
        if lifted is None:
            if query is None:
                query = parse_query(
                    query_text if tokens is None else tokens
                )
            updating = check_query(query)
        self._check_read_only(updating, read_only)
        if mode == "interpreter":
            if cancellation is not None:
                cancellation.poll()
            return self._run_interpreted(
                graph, query, parameters, updating, reason="mode=interpreter"
            )
        if plan is None:
            try:
                plan = plan_query(query, self.graph, morphism=self.morphism)
            except UnsupportedFeature as unsupported:
                if mode != "auto":
                    raise
                if cancellation is not None:
                    cancellation.poll()
                return self._run_interpreted(
                    graph, query, parameters, updating,
                    reason=str(unsupported),
                )
        else:
            parameters = _merged(parameters, lifted)
        self._remember_plan(key, plan, updating)
        return self._execute_planned(
            graph, plan, parameters, updating, mode, access_log, cancellation,
        )

    def _lift(self, query_text, parameters, remember=True):
        """``(key, lifted, tokens, query)`` for a text the lookup missed.

        ``lifted`` maps the reserved parameter names to the values of
        the literals that lift, and ``key`` is then the shape key the
        plan is cached under; ``lifted`` is None, and ``key`` the text,
        when nothing lifts.  ``tokens`` is the text lexed — here, once —
        or None when it is not lifted before lexing (the front end then
        starts from the text, and reports why if it does not lex).
        ``query`` is the statement parsed the way ``lifted`` says, when
        learning the shape's mask took a parse; else None.

        Two texts are never lifted, whatever their literals: one with a
        backtick (a quoted identifier may spell an operator or a
        reserved name, so its token texts do not determine its parse)
        and one run with a user parameter that has a reserved name.
        ``remember=False`` (``explain_info`` asking whether a run would
        lift) leaves the shape table as it is.
        """
        if "`" in query_text or (parameters and any(
            name.startswith(LIFTED_PREFIX) for name in parameters
        )):
            return query_text, None, None, None
        try:
            tokens = tokenize(query_text)
        except CypherSyntaxError:
            return query_text, None, None, None
        skeleton, literals = skeleton_of(tokens)
        if not literals:
            return query_text, None, tokens, None
        mask, query = self._lift_mask(skeleton, tokens, remember)
        lifted = {}
        kept = []
        for token, name in zip(literals, mask):
            if name is None:
                kept.append(token.text)
            else:
                lifted[name] = literal_value(token)
        if not lifted:
            return query_text, None, tokens, query
        return (skeleton, tuple(kept)), lifted, tokens, query

    def _lift_mask(self, skeleton, tokens, remember):
        """``(mask, query)``: the shape's lift mask, remembered or learnt.

        Learning it is one lifting parse of ``tokens``, whose result
        comes back as ``query`` (None when the mask was remembered).  A
        statement that does not parse has the empty mask: it runs
        unlifted, and the literal front end raises its syntax error.
        """
        shapes = self._shapes
        mask = shapes.get(skeleton)
        if mask is not None:
            if remember:
                try:
                    shapes.move_to_end(skeleton)
                except KeyError:
                    pass  # another thread's insert just evicted it
            return mask, None
        parser = Parser(tokens, lift=True)
        try:
            query = parser.parse_query()
        except CypherSyntaxError:
            return (), None
        mask = parser.lift_mask
        if remember:
            shapes[skeleton] = mask
            while len(shapes) > self._PLAN_CACHE_LIMIT:
                shapes.popitem(last=False)
        return mask, query

    @staticmethod
    def _check_read_only(updating, read_only):
        if updating and read_only:
            raise TransactionError(
                "updating statements are not allowed on a read-only view"
            )

    # -- sessions --------------------------------------------------------

    def session(self, timeout=None):
        """A transactional :class:`~repro.runtime.session.Session`.

        Use as a context manager; ``timeout`` becomes the default
        per-statement timeout for every :meth:`Session.run`.  The
        session occupies one admission slot (see ``max_sessions``) from
        first use until close.
        """
        from repro.runtime.session import Session

        return Session(self, default_timeout=timeout)

    def _admit_session(self):
        if not self._admission.acquire(timeout=self.admission_timeout):
            raise EngineOverloadedError(
                "engine is at its %d in-flight session limit; "
                "retry later or raise max_sessions" % self.max_sessions
            )

    def _release_session(self):
        self._admission.release()

    # ------------------------------------------------------------------

    def create_index(self, label, *keys):
        """Declare a ``(label, k1, k2, …)`` property index on the graph.

        One key declares the classic single-column index; several keys
        declare a composite index over the key tuple, in order (the
        order is the index's sort order — it decides which ORDER BY
        clauses the index can provide).  Returns True when the index is
        new.  The store builds it once and maintains it incrementally
        from then on; the schema-epoch bump it causes makes the next
        lookup of every cached plan re-plan against the new access
        path.
        """
        return self.graph.create_index(label, *keys)

    def drop_index(self, label, *keys):
        """Drop a property index; returns True when one existed."""
        if len(keys) == 1:
            return self.graph.drop_index(label, keys[0])
        return self.graph.drop_index(label, keys)

    def create_reachability_index(self, types=None):
        """Declare a reachability index over a relationship-type set.

        ``types`` is an iterable of type names (None = all types).
        Returns True when the index is new; unbounded var-length
        traversals into a bound endpoint compile to index probes from
        the next (re)plan on.
        """
        return self.graph.create_reachability_index(types)

    def drop_reachability_index(self, types=None):
        """Drop a reachability index; returns True when one existed."""
        return self.graph.drop_reachability_index(types)

    def ingest(self, sources, batch_size=1000, defer_indexes=True):
        """Bulk-load CSV tables into the default graph.

        ``sources`` is a directory path, file paths, or ``(name,
        lines)`` pairs — see :func:`repro.graph.ingest.ingest_csv`.
        Rows batch through the store's bulk create paths inside one
        rollback-exact transaction; with ``defer_indexes`` the declared
        property/reachability indexes are rebuilt once at ingest end
        instead of being maintained per row.  Returns the
        :class:`~repro.graph.ingest.IngestReport`.
        """
        from repro.graph.ingest import ingest_csv

        return ingest_csv(
            self.graph, sources,
            batch_size=batch_size, defer_indexes=defer_indexes,
        )

    def _plan_for_explain(self, query_text):
        """``(plan, updating)``: parse → check → plan, no literal lifted.

        What :meth:`explain` and :meth:`explain_info` show.  The check is
        the one analysis :meth:`run` also makes, so a statement it
        rejects is rejected identically by all three.
        """
        query = parse_query(query_text)
        updating = check_query(query)
        plan = plan_query(query, self.graph, morphism=self.morphism)
        return plan, updating

    def explain(self, query_text):
        """The physical plan the planner would run, as indented text.

        Mirrors :meth:`run`'s pipeline, so the reported plan is the one
        a run would actually cache and execute.
        """
        plan, _updating = self._plan_for_explain(query_text)
        return plan.describe()

    def explain_info(self, query_text):
        """``(executed_by, fallback_reason, plan_text, cache_info, mode)``.

        ``executed_by`` is ``"planner"`` with the plan tree — update
        queries included, with their ``Eager`` barriers and write
        operators rendered — or ``"interpreter"`` with the reason the
        planner refused (only the Cypher 10 graph clauses remain).
        ``cache_info`` is :meth:`plan_cache_info` — hits, misses and
        why known texts re-planned — which is how "a commit costs no
        statement its plan" is observable, plus ``lifts``: whether a
        run of this text would be keyed by its shape, its literals
        lifted into parameters (the plan shown is the literal one
        either way — same operators).  ``mode`` is the execution
        strategy a run would pick — ``"batch"`` (vectorised morsels over
        slot columns) or ``"row"`` — and None on the interpreter path.
        Nothing is executed.
        """
        cache_info = self.plan_cache_info()
        cache_info["lifts"] = (
            self._lift(query_text, None, remember=False)[1] is not None
        )
        try:
            plan, updating = self._plan_for_explain(query_text)
        except UnsupportedFeature as unsupported:
            return ("interpreter", str(unsupported), None, cache_info, None)
        # Respect a pinned engine mode: a :mode row session must see the
        # strategy its runs will actually use (an interpreter-pinned
        # engine still reports the hypothetical planner strategy).
        mode = self._pick_execution_mode(
            self.graph, plan, updating, self.mode
        )
        return ("planner", None, plan.describe(), cache_info, mode)

    def plan_cache_info(self):
        """Plan-cache counters, with the derived hit rate.

        ``revalidated`` is the share of ``hits`` that crossed a version
        bump (footprint re-read, entry re-stamped); ``evicted_schema``
        and ``evicted_drift`` split the ``misses`` on known keys by
        cause — the rest are first sightings and LRU victims.
        ``lifted_hits`` is the share of ``hits`` that arrived through a
        shape key — an ad hoc text whose literals were lifted into
        parameters — and ``shapes`` the number of skeletons whose lift
        mask is known: on a stream of ad hoc texts, ``misses`` tracks
        the number of shapes, not the number of texts.
        """
        hits = self.plan_cache_hits
        misses = self.plan_cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
            "entries": len(self._plan_cache),
            "shapes": len(self._shapes),
            "lifted_hits": self.plan_cache_lifted_hits,
            "revalidated": self.plan_cache_revalidated,
            "evicted_schema": self.plan_cache_evicted_schema,
            "evicted_drift": self.plan_cache_evicted_drift,
        }

    @staticmethod
    def pipeline_info():
        """What a plan-cache hit skips *below* the plan, as counters.

        A copy of the executors'
        :data:`~repro.planner.physical.PIPELINE_STATS`: planned
        executions that ``compiled`` their closure tree (every update
        does), reads that ``reused`` a parked one, and takes that found
        their variant's slot in use (``contended``).
        The counters belong to the executors, not to an engine: they
        cover every engine in the process, which is why they are not
        part of :meth:`plan_cache_info`.
        """
        return dict(PIPELINE_STATS)

    def snapshot_info(self):
        """Snapshot counters: the store's pin counters plus read counts.

        ``pins`` is :meth:`MemoryGraph.pin_info` — taken, refused, live,
        pre-images preserved by kind, largest delta at release;
        ``clean_reads`` / ``dirty_reads`` split the snapshot reads this
        engine ran by whether anything had mutated since their pin.
        Plain counters, nothing timed.
        """
        return {
            "pins": self.graph.pin_info(),
            "clean_reads": self.snapshot_clean_reads,
            "dirty_reads": self.snapshot_dirty_reads,
        }

    # ------------------------------------------------------------------

    def _run_interpreted(
        self, graph, query, parameters, updating, reason=None,
    ):
        state = QueryState(
            graph,
            parameters=parameters,
            functions=self.functions,
            morphism=self.morphism,
            catalog=(
                self.catalog if graph is self.graph else GraphCatalog(graph)
            ),
        )
        with self._schema_guard(updating):
            table = run_statement(query, state)
        return QueryResult(
            table,
            graphs=state.result_graphs,
            executed_by="interpreter",
            fallback_reason=reason,
        )

    def _pick_execution_mode(self, graph, plan, updating, mode="auto"):
        """``"batch"`` or ``"row"`` for one execution.

        Batch execution is the default wherever the batch engine claims
        the plan: a read-only plan whose operators all have batch
        implementations, on a store exposing the bulk column APIs.
        Write plans (and their Eager barriers) always run row-wise —
        their mutations already batch through the store transaction.
        ``mode="row"`` pins row execution for differential testing.
        """
        if mode == "row" or updating:
            return "row"
        if not (plan_supports_batch(plan) and graph_supports_batch(graph)):
            return "row"
        return "batch"

    def _execute_planned(
        self, graph, plan, parameters, updating, mode, access_log=None,
        cancel=None,
    ):
        execution_mode = self._pick_execution_mode(
            graph, plan, updating, mode
        )
        if execution_mode == "batch":
            table = execute_plan_batched(
                plan,
                graph,
                parameters=parameters,
                functions=self.functions,
                morphism=self.morphism,
                morsel_size=self.morsel_size,
                access_log=access_log,
                cancel=cancel,
            )
            return QueryResult(
                table,
                plan=plan,
                executed_by="planner",
                execution_mode="batch",
                access_paths=access_log,
            )
        with self._schema_guard(updating):
            table = execute_plan(
                plan,
                graph,
                parameters=parameters,
                functions=self.functions,
                morphism=self.morphism,
                access_log=access_log,
                cancel=cancel,
                # Read-only statements unlock the compiler's shared,
                # memoised property readers (CSE); writes must re-read.
                read_only=not updating,
            )
        return QueryResult(
            table, plan=plan, executed_by="planner", execution_mode="row",
            access_paths=access_log,
        )

    def _schema_guard(self, updating):
        """Validate an updating statement; unwind it alone on failure."""
        if self.schema is None or not updating:
            return contextlib.nullcontext()
        return self._validated_statement()

    @contextlib.contextmanager
    def _validated_statement(self):
        """One schema-checked statement, unwound from its pre-images.

        The statement runs in a session scope: the caller's, inside an
        explicit session, or else a one-statement scope opened here.
        Either way every write it makes lands in the scope's spanning
        transaction.  Validation is the one step this adds to the
        statement's path: after the statement the schema is validated,
        and a scope of our own then commits (one version bump).  On a
        violation, or any exception, the statement's recorded pre-images
        are restored — the same rollback every failing statement takes —
        and the error propagates: no version or schema-epoch bump, and an
        explicit session's earlier statements stay for its commit or
        rollback.
        """
        graph = self.graph
        owner = None if graph.in_session_scope else object()
        if owner is not None:
            graph.enter_session_scope(owner)
        try:
            statement = graph.write_transaction()
            try:
                yield
                violations = self.schema.validate(graph)
                if violations:
                    raise ConstraintViolation(
                        "update rolled back; schema violations: %s"
                        % "; ".join(str(violation) for violation in violations)
                    )
            except BaseException:
                statement.rollback()
                raise
            if owner is not None:
                graph.active_session_transaction(owner).commit()
        finally:
            if owner is not None:
                # Open only if the statement failed or its commit did.
                spanning = graph.active_session_transaction(owner)
                if spanning is not None:
                    spanning.rollback()
                graph.exit_session_scope()

    # -- plan cache ------------------------------------------------------

    _PLAN_CACHE_LIMIT = 256

    def _cached_plan(self, key):
        """``(plan, updating)`` cached under ``key``, or None.

        ``key`` is an exact text or a shape key (see ``_plan_cache``);
        the caller counts the statement's one miss.  A hit skips
        parsing, semantic checks and planning (update plans
        carry their ``updating`` flag so the schema guard still runs).
        While the store's version stands still that is a dict lookup and
        one comparison.  When it moved — a foreign commit, the
        statement's own, index DDL —
        the entry is revalidated by the rule stated on ``_plan_cache``:
        evict on a schema-epoch mismatch or a >2x drift of a footprint
        counter, otherwise re-stamp to the current version and hit.
        """
        entry = self._plan_cache.get(key)
        if entry is None:
            return None
        graph_key, version, epoch, plan, updating, footprint, planned = entry
        graph = self.graph
        if graph_key != id(graph):
            return self._evict(key)
        current = graph.version
        if version != current:
            if epoch != graph.schema_version:
                self.plan_cache_evicted_schema += 1
                return self._evict(key)
            for then, now in zip(planned, footprint_counts(footprint, graph)):
                if now > 2 * then or 2 * now < then:
                    self.plan_cache_evicted_drift += 1
                    return self._evict(key)
            entry[1] = current
            self.plan_cache_revalidated += 1
        self._plan_cache.move_to_end(key)
        self.plan_cache_hits += 1
        return plan, updating

    def _evict(self, key):
        del self._plan_cache[key]
        return None

    def _remember_plan(self, key, plan, updating):
        graph = self.graph
        version = getattr(graph, "version", None)
        if version is None:
            return  # no mutation counter: cannot tell when to invalidate
        footprint = plan_statistics_footprint(plan)
        self._plan_cache[key] = [
            id(graph),
            version,
            graph.schema_version,
            plan,
            updating,
            footprint,
            footprint_counts(footprint, graph),
        ]
        self._plan_cache.move_to_end(key)
        while len(self._plan_cache) > self._PLAN_CACHE_LIMIT:
            self._plan_cache.popitem(last=False)
