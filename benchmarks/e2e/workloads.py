"""The five workloads: templates, seeded inputs, and the pass loops.

Every workload is one process, one thread, closed loop.  Inputs are
drawn before a pass is timed; the engine only ever sees query text and
parameters.  A pass loop has an untraced form (the end-to-end numbers)
and a traced form that records one span per call into the engine and
hashes every result (the per-layer numbers and the exact counts).
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from array import array
from collections import namedtuple

from repro.exceptions import TransactionError

from world import DATASET_EPOCH, DATASET_SPREAD

DAY = 24 * 3600


class Template:
    """One query shape.  ``draw(rng, handles)`` makes its parameters.

    ``order_key`` names the ORDER BY columns of an ordered result: the
    oracle check compares those in sequence and the rest as a bag.
    ``adhoc`` optionally replaces ``(text, draw)`` where the literal
    form needs a different text to stay on the same access path.
    """

    def __init__(self, name, text, draw, order_key=None, adhoc=None):
        self.name = name
        self.text = text
        self.draw = draw
        self.order_key = order_key
        self.adhoc = adhoc


def _person(rng, h):
    return {"pid": rng.choice(h.persons)}


def _post(rng, h):
    return {"mid": rng.choice(h.posts)}


def _forum(rng, h):
    return {"fid": rng.choice(h.forums)}


def _stamp(rng):
    return DATASET_EPOCH + rng.randrange(DATASET_SPREAD)


def _window(rng, h):
    low = _stamp(rng)
    return {"lo": low, "hi": low + 3 * DAY}


def _year(rng, h):
    low = DATASET_EPOCH + rng.randrange(DATASET_SPREAD - 365 * DAY)
    return {"lo": low, "hi": low + 365 * DAY}


INTERACTIVE = (
    Template(
        "person_by_id",
        "MATCH (p:Person {id: $pid}) RETURN p.firstName AS firstName, "
        "p.lastName AS lastName, p.birthday AS birthday, "
        "p.browser AS browser",
        _person,
    ),
    Template(
        "friends_of",
        "MATCH (p:Person {id: $pid})-[:KNOWS]-(f:Person) "
        "RETURN f.id AS id, f.firstName AS firstName ORDER BY id",
        _person,
        order_key=("id",),
    ),
    Template(
        "messages_by_creator",
        "MATCH (m)-[:HAS_CREATOR]->(p:Person {id: $pid}) "
        "RETURN count(m) AS n",
        _person,
    ),
    Template(
        "post_creator",
        "MATCH (m:Post {id: $mid})-[:HAS_CREATOR]->(p:Person) "
        "RETURN p.id AS id, p.firstName AS firstName, m.length AS length",
        _post,
    ),
    Template(
        "forum_post_count",
        "MATCH (f:Forum {id: $fid})-[:CONTAINER_OF]->(m:Post) "
        "RETURN count(m) AS n",
        _forum,
    ),
    # The planner only turns ORDER BY into an index-ordered scan when the
    # bound on the ordered column is a literal (or IS NOT NULL), so the
    # parameterised form varies LIMIT and the literal form varies the bound.
    Template(
        "latest_posts",
        "MATCH (m:Post) WHERE m.creationDate IS NOT NULL "
        "RETURN m.id AS id, m.creationDate AS created "
        "ORDER BY created DESC LIMIT $k",
        lambda rng, h: {"k": rng.randrange(5, 21)},
        order_key=("created",),
        adhoc=(
            "MATCH (m:Post) WHERE m.creationDate <= $ts "
            "RETURN m.id AS id, m.creationDate AS created "
            "ORDER BY created DESC LIMIT 10",
            lambda rng, h: {"ts": _stamp(rng)},
        ),
    ),
    Template(
        "posts_in_window",
        "MATCH (m:Post) WHERE m.creationDate >= $lo AND "
        "m.creationDate < $hi RETURN count(m) AS n",
        _window,
    ),
)

ANALYTIC = (
    Template(
        "fof_count",
        "MATCH (p:Person {id: $pid})-[:KNOWS]-()-[:KNOWS]-(fof:Person) "
        "RETURN count(DISTINCT fof) AS n",
        _person,
    ),
    Template(
        "reply_chain",
        "MATCH (m:Comment)-[:REPLY_OF*1..3]->(root)-[:HAS_CREATOR]->"
        "(p:Person {id: $pid}) RETURN count(m) AS n",
        _person,
    ),
    Template(
        "comment_filter",
        "MATCH (m:Comment) WHERE m.length >= $minlen RETURN count(m) AS n",
        lambda rng, h: {"minlen": rng.randrange(5, 35)},
    ),
    Template(
        "post_sum",
        "MATCH (m:Post) WHERE m.length >= $minlen "
        "RETURN count(m) AS n, sum(m.length) AS total",
        lambda rng, h: {"minlen": rng.randrange(5, 35)},
    ),
    # A one-year window keeps the grouped aggregate the mix's p95 while
    # leaving room for 2,000 samples in a ten-second run.
    Template(
        "top_posters",
        "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) "
        "WHERE m.creationDate >= $lo AND m.creationDate < $hi "
        "RETURN p.id AS id, count(m) AS n ORDER BY n DESC, id LIMIT 10",
        _year,
        order_key=("n", "id"),
    ),
    Template(
        "forum_likes",
        "MATCH (f:Forum {id: $fid})-[:CONTAINER_OF]->(m:Post)"
        "<-[:LIKES]-(p:Person) RETURN count(p) AS n",
        _forum,
    ),
)

UPDATE_KINDS = ("new_post", "new_like", "new_friendship", "edit_post", "unlike")

_META = "MATCH (c:Meta) SET c.txns = c.txns + 1"


def _literal(value):
    return "'%s'" % value if isinstance(value, str) else str(value)


def inline(text, parameters):
    """The query with every ``$name`` replaced by its literal."""
    return re.sub(
        r"\$(\w+)", lambda match: _literal(parameters[match.group(1)]), text
    )


def seeded(seed, *stream):
    # A str seed is hashed with SHA-512, so streams are independent of
    # each other and of PYTHONHASHSEED.
    return random.Random("%d/%s" % (seed, "/".join(stream)))


class PassOut:
    """What one pass (or one pooled run of passes) observed."""

    def __init__(self):
        # Arrays, not lists: a run that delivers more ops must not show
        # up as a larger peak_rss_mb.
        self.latencies = array("q")   # ns per delivered op
        self.templates = array("b")   # template index per delivered op
        self.failed = 0
        self.first_error = None
        self.rows_out = 0
        self.batch = 0
        self.row = 0
        self.interpreter = 0
        self.wall_ns = 0
        self.cpu_ns = 0

    @property
    def attempted(self):
        return len(self.latencies) + self.failed

    def fail(self, error, count=1):
        self.failed += count
        if self.first_error is None:
            self.first_error = repr(error)

    def note_mode(self, result):
        if result.executed_by != "planner":
            self.interpreter += 1
        elif result.execution_mode == "row":
            self.row += 1
        else:
            self.batch += 1

    def absorb(self, other):
        self.latencies += other.latencies
        self.templates += other.templates
        self.failed += other.failed
        self.first_error = self.first_error or other.first_error
        self.rows_out += other.rows_out
        self.batch += other.batch
        self.row += other.row
        self.interpreter += other.interpreter


class Spans:
    """In-memory span log: ``(op, id, parent, name, start_ns, end_ns)``."""

    def __init__(self):
        self.rows = []
        self.digest = hashlib.sha256()
        self._next = 0
        self._ops = 0

    def new_id(self):
        self._next += 1
        return self._next

    def new_op(self):
        """The number that ties one operation's spans together."""
        self._ops += 1
        return self._ops

    def add(self, op, name, start, end, parent=None, span_id=None):
        if span_id is None:
            span_id = self.new_id()
        self.rows.append((op, span_id, parent, name, start, end))
        return span_id

    def durations(self, name):
        return [end - start for _, _, _, n, start, end in self.rows if n == name]

    def observe(self, value):
        self.digest.update(repr(value).encode())

    def digest_number(self):
        """The first 48 bits of the result hash, exact as a JSON number."""
        return int(self.digest.hexdigest()[:12], 16)

    def as_dicts(self):
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        return [dict(zip(keys, row)) for row in self.rows]


def _timed(out, body):
    """Run ``body()`` under the pass-level wall and CPU clocks."""
    cpu = time.process_time_ns()
    wall = time.perf_counter_ns()
    body()
    out.wall_ns = time.perf_counter_ns() - wall
    out.cpu_ns = time.process_time_ns() - cpu
    return out


class ReadWorkload:
    """A closed loop of read statements against ``world.engine``."""

    def __init__(self, name, templates, adhoc=False):
        self.name = name
        self.templates = templates
        self.template_names = [t.name for t in templates]
        self.adhoc = adhoc

    def bind(self, world, seed):
        self.world = world
        self.engine = world.engine
        self.seed = seed
        self._rng = seeded(seed, self.name, "ops")
        return self

    def close(self):
        pass

    def _op(self, index, rng):
        template = self.templates[index]
        text, draw = template.text, template.draw
        if self.adhoc:
            if template.adhoc is not None:
                text, draw = template.adhoc
            return index, inline(text, draw(rng, self.world.handles)), None
        return index, text, draw(rng, self.world.handles)

    def make_ops(self, count, rng=None):
        """``count`` ops: shuffled cycles over the templates, so every
        template has the same share whatever the pass length."""
        rng = rng or self._rng
        order = list(range(len(self.templates)))
        ops = []
        while len(ops) < count:
            rng.shuffle(order)
            ops.extend(self._op(index, rng) for index in order)
        return ops[:count]

    def verify_ops(self, per_template):
        """Distinct ops, the same number per template, own stream."""
        rng = seeded(self.seed, self.name, "verify")
        seen = set()
        ops = []
        for index in range(len(self.templates)):
            found = attempts = 0
            while found < per_template and attempts < per_template * 20:
                attempts += 1
                op = self._op(index, rng)
                key = (op[1], repr(op[2]))
                if key not in seen:
                    seen.add(key)
                    ops.append(op)
                    found += 1
        return ops

    def statements(self, count):
        """The statement sample the pipeline replay runs by hand."""
        return self.make_ops(count, seeded(self.seed, self.name, "trace"))

    def run_pass(self, count, spans=None):
        ops = self.make_ops(count)
        out = PassOut()
        if spans is None:
            return _timed(out, lambda: self._loop(ops, out))
        return _timed(out, lambda: self._loop_traced(ops, out, spans))

    def _loop(self, ops, out):
        run = self.engine.run
        clock = time.perf_counter_ns
        latencies, templates = out.latencies, out.templates
        for index, text, parameters in ops:
            started = clock()
            try:
                result = run(text, parameters)
                records = result.records
            except Exception as error:  # a failed op is counted, not fatal
                out.fail(error)
                continue
            latencies.append(clock() - started)
            templates.append(index)
            out.rows_out += len(records)
            out.note_mode(result)

    def _loop_traced(self, ops, out, spans):
        run = self.engine.run
        clock = time.perf_counter_ns
        for index, text, parameters in ops:
            number, root = spans.new_op(), spans.new_id()
            started = clock()
            try:
                result = run(text, parameters)
                ran = clock()
                records = result.records
            except Exception as error:
                out.fail(error)
                continue
            ended = clock()
            spans.add(number, "engine.run", started, ran, root)
            spans.add(number, "materialise", ran, ended, root)
            spans.add(number, "op", started, ended, None, root)
            spans.observe(records)
            out.latencies.append(ended - started)
            out.templates.append(index)
            out.rows_out += len(records)
            out.note_mode(result)


Transaction = namedtuple("Transaction", "kind statements abort")


class UpdateStream:
    """The seeded stream of write transactions.

    Kinds come in shuffled cycles of five and every ``abort_every``-th
    transaction is rolled back, so the stream depends on the seed alone,
    never on what an execution returned.
    """

    def __init__(self, handles, seed, abort_every=7):
        self.handles = handles
        self.rng = seeded(seed, "update-stream")
        self.abort_every = abort_every
        self.issued = 0
        self._order = []
        self._likes = list(handles.comment_likes)
        self.rng.shuffle(self._likes)

    def take(self, count):
        return [self.next() for _ in range(count)]

    def next(self):
        if not self._order:
            self._order = list(range(len(UPDATE_KINDS)))
            self.rng.shuffle(self._order)
        kind = self._order.pop()
        self.issued += 1
        if UPDATE_KINDS[kind] == "unlike" and not self._likes:
            kind = UPDATE_KINDS.index("new_like")  # nothing left to delete
        statements = getattr(self, "_" + UPDATE_KINDS[kind])()
        return Transaction(kind, statements, self._aborting())

    def _aborting(self):
        return self.issued % self.abort_every == 0

    def _stamp(self):
        return DATASET_EPOCH + DATASET_SPREAD + self.issued

    def _new_post(self):
        rng, h = self.rng, self.handles
        mid = "w%d" % self.issued
        return [
            (
                "MATCH (p:Person {id: $pid}) "
                "CREATE (m:Post {id: $mid, content: $content, "
                "length: $length, creationDate: $ts})-[:HAS_CREATOR]->(p)",
                {
                    "pid": rng.choice(h.persons),
                    "mid": mid,
                    "content": "update %s" % mid,
                    "length": len(mid) + 7,
                    "ts": self._stamp(),
                },
            ),
            (
                "MATCH (f:Forum {id: $fid}), (m:Post {id: $mid}) "
                "CREATE (f)-[:CONTAINER_OF]->(m)",
                {"fid": rng.choice(h.forums), "mid": mid},
            ),
            (_META + ", c.posts = c.posts + 1", None),
        ]

    def _new_like(self):
        rng, h = self.rng, self.handles
        return [
            (
                "MATCH (p:Person {id: $pid}), (m:Post {id: $mid}) "
                "CREATE (p)-[:LIKES {creationDate: $ts}]->(m)",
                {
                    "pid": rng.choice(h.persons),
                    "mid": rng.choice(h.posts),
                    "ts": self._stamp(),
                },
            ),
            (_META + ", c.likes = c.likes + 1", None),
        ]

    def _new_friendship(self):
        left, right = self.rng.sample(self.handles.persons, 2)
        return [
            (
                "MATCH (a:Person {id: $left}), (b:Person {id: $right}) "
                "CREATE (a)-[:KNOWS {creationDate: $ts}]->(b)",
                {"left": left, "right": right, "ts": self._stamp()},
            ),
            (_META + ", c.knows = c.knows + 1", None),
        ]

    def _edit_post(self):
        mid = self.rng.choice(self.handles.posts)
        return [
            (
                # creationDate is indexed, content is not.
                "MATCH (m:Post {id: $mid}) "
                "SET m.creationDate = $ts, m.content = $content",
                {
                    "mid": mid,
                    "ts": self._stamp(),
                    "content": "edited %d" % self.issued,
                },
            ),
            (_META, None),
        ]

    def _unlike(self):
        # A rolled-back delete leaves the relationship in place, so the
        # pair stays available to a later transaction.
        pid, mid = self._likes[-1] if self._aborting() else self._likes.pop()
        return [
            (
                "MATCH (p:Person {id: $pid})-[r:LIKES]->"
                "(m:Comment {id: $mid}) DELETE r",
                {"pid": pid, "mid": mid},
            ),
            (_META + ", c.likes = c.likes - 1", None),
        ]


def apply_transaction(session, transaction, note=None):
    """One whole transaction on ``session``; ``note`` sees each result."""
    session.begin()
    for text, parameters in transaction.statements:
        result = session.run(text, parameters)
        result.records
        if note is not None:
            note(result)
    if transaction.abort:
        session.rollback()
    else:
        session.commit()


class UpdateWorkload:
    """One session, explicit transactions; one op is one transaction."""

    name = "update_txn"
    templates = ()
    template_names = list(UPDATE_KINDS)

    def bind(self, world, seed, engine=None):
        self.world = world
        self.engine = engine or world.engine
        self.seed = seed
        self.stream = UpdateStream(world.handles, seed)
        self.session = self.engine.session()
        self.committed = 0
        self.aborted = 0
        return self

    def close(self):
        self.session.close()

    def statements(self, count):
        """Write statements of the stream's first transactions."""
        stream = UpdateStream(self.world.handles, self.seed)
        found = []
        while len(found) < count:
            transaction = stream.next()
            found.extend(
                (transaction.kind, text, parameters)
                for text, parameters in transaction.statements
            )
        return found[:count]

    def run_pass(self, count, spans=None):
        transactions = self.stream.take(count)
        out = PassOut()
        if spans is None:
            return _timed(out, lambda: self._loop(transactions, out))
        return _timed(out, lambda: self._loop_traced(transactions, out, spans))

    def _loop(self, transactions, out):
        session = self.session
        clock = time.perf_counter_ns
        for transaction in transactions:
            started = clock()
            try:
                apply_transaction(session, transaction, out.note_mode)
            except Exception as error:
                self._recover(out, error)
                continue
            out.latencies.append(clock() - started)
            out.templates.append(transaction.kind)
            self._count(transaction)

    def _loop_traced(self, transactions, out, spans):
        session = self.session
        clock = time.perf_counter_ns
        for transaction in transactions:
            number, root = spans.new_op(), spans.new_id()
            started = clock()
            try:
                session.begin()
                mark = clock()
                spans.add(number, "begin", started, mark, root)
                for text, parameters in transaction.statements:
                    result = session.run(text, parameters)
                    result.records
                    out.note_mode(result)
                    now = clock()
                    spans.add(number, "session.run", mark, now, root)
                    mark = now
                if transaction.abort:
                    session.rollback()
                else:
                    session.commit()
            except Exception as error:
                self._recover(out, error)
                continue
            ended = clock()
            spans.add(
                number, "rollback" if transaction.abort else "commit",
                mark, ended, root,
            )
            spans.add(number, "op", started, ended, None, root)
            out.latencies.append(ended - started)
            out.templates.append(transaction.kind)
            self._count(transaction)
        spans.observe(self.state_digest())

    def _count(self, transaction):
        if transaction.abort:
            self.aborted += 1
        else:
            self.committed += 1

    def _recover(self, out, error):
        out.fail(error)
        if self.session.in_transaction:
            self.session.rollback()

    def state_digest(self):
        graph = self.engine.graph
        return (
            self.committed, self.aborted,
            graph.node_count(), graph.relationship_count(),
        )


#: A reader that cannot pin after this many refusals gives its reads up.
PIN_ATTEMPT_LIMIT = 1000
READS_PER_SNAPSHOT = 4
WRITER_IDLE_TICKS = 4


class MixedWorkload:
    """Two logical clients on one thread, strictly alternating ticks.

    The writer takes one step of ``update_txn``'s stream per tick
    (``begin`` + first statement, each further statement, then
    ``commit``/``rollback``) and idles four ticks between transactions.
    The reader opens a session and tries to pin a snapshot; a refused
    pin costs the tick.  The tick that pins also delivers the first of
    four reads on that snapshot, the next three take one tick each, and
    the session closes with the fourth.  One op is one read delivered;
    the first read of a snapshot is timed from the first pin attempt.
    """

    name = "mixed_rw"
    templates = INTERACTIVE
    template_names = [t.name for t in INTERACTIVE]

    def bind(self, world, seed, engine=None):
        self.world = world
        self.engine = engine or world.engine
        self.seed = seed
        self.reads = ReadWorkload("mixed_rw", INTERACTIVE).bind(world, seed)
        self.stream = UpdateStream(world.handles, seed)
        self.session = self.engine.session()
        self.committed_log = []
        self.aborted = 0
        self.pin_attempts = 0
        self.pin_refused = 0
        self.overlay_reads = 0
        self.clean_reads = 0
        self.version_regressions = 0
        #: Called with the live snapshot before its session closes
        #: (the verify phase checks the Meta invariants there).
        self.on_snapshot = None
        self._out = None
        self._spans = None
        self._tick = 0
        self._writer = self._write()
        self._reader = self._read()
        return self

    def close(self):
        self._writer.close()
        self._reader.close()
        self.session.close()

    def statements(self, count):
        return self.reads.statements(count)

    def run_pass(self, count, spans=None):
        out = self._out = PassOut()
        self._spans = spans

        def body():
            writer, reader = self._writer, self._reader
            while out.attempted < count:
                next(writer)
                next(reader)

        _timed(out, body)
        if spans is not None:
            spans.observe(self.state_digest())
        return out

    def state_digest(self):
        graph = self.engine.graph
        return (
            len(self.committed_log), self.aborted, self.pin_attempts,
            self.pin_refused, self.overlay_reads, self.clean_reads,
            graph.node_count(), graph.relationship_count(),
        )

    def _span(self, name, started, ended):
        if self._spans is not None:
            self._spans.add(self._tick, name, started, ended)

    def _write(self):
        session = self.session
        clock = time.perf_counter_ns
        while True:
            transaction = self.stream.next()
            started = clock()
            session.begin()
            for text, parameters in transaction.statements:
                session.run(text, parameters).records
                self._span("writer.statement", started, clock())
                yield
                started = clock()
            # A commit pays copy-on-write pre-images only while a pin is live.
            pinned = self._pinned
            if transaction.abort:
                session.rollback()
                self.aborted += 1
                self._span("writer.rollback", started, clock())
            else:
                session.commit()
                self.committed_log.append(transaction)
                self._span(
                    "writer.commit_pinned" if pinned else "writer.commit",
                    started, clock(),
                )
            yield
            for _ in range(WRITER_IDLE_TICKS):
                yield

    _pinned = False

    def _read(self):
        engine = self.engine
        clock = time.perf_counter_ns
        last_version = -1
        while True:
            ops = self.reads.make_ops(READS_PER_SNAPSHOT)
            session = engine.session()
            first_attempt = clock()
            snapshot = None
            for _ in range(PIN_ATTEMPT_LIMIT):
                self.pin_attempts += 1
                started = clock()
                try:
                    snapshot = session.snapshot()
                except TransactionError:
                    self.pin_refused += 1
                    self._span("pin.refused", started, clock())
                    self._tick += 1
                    yield
                    continue
                self._span("pin", started, clock())
                break
            if snapshot is None:
                self._out.fail("pin refused %d times" % PIN_ATTEMPT_LIMIT,
                               READS_PER_SNAPSHOT)
                session.close()
                continue
            self._pinned = True
            if snapshot.version < last_version:
                self.version_regressions += 1
            last_version = snapshot.version
            for position, (index, text, parameters) in enumerate(ops):
                out = self._out
                started = clock()
                clean = snapshot.pin.clean
                try:
                    result = snapshot.run(text, parameters)
                    ran = clock()
                    records = result.records
                except Exception as error:
                    out.fail(error)
                else:
                    ended = clock()
                    out.latencies.append(
                        ended - (started if position else first_attempt)
                    )
                    out.templates.append(index)
                    out.rows_out += len(records)
                    out.note_mode(result)
                    if clean:
                        self.clean_reads += 1
                    else:
                        self.overlay_reads += 1
                    if self._spans is not None:
                        self._span(
                            "read.clean" if clean else "read.overlay",
                            started, ran,
                        )
                        self._span("materialise", ran, ended)
                        self._spans.observe(records)
                if position == READS_PER_SNAPSHOT - 1:
                    if self.on_snapshot is not None:
                        self.on_snapshot(snapshot)
                    session.close()
                    self._pinned = False
                self._tick += 1
                yield


def build(name):
    """The (unbound) workload object for ``name``."""
    if name == "interactive_read":
        return ReadWorkload(name, INTERACTIVE)
    if name == "adhoc_compile":
        return ReadWorkload(name, INTERACTIVE, adhoc=True)
    if name == "analytic_scan":
        return ReadWorkload(name, ANALYTIC)
    if name == "update_txn":
        return UpdateWorkload()
    if name == "mixed_rw":
        return MixedWorkload()
    raise ValueError("unknown workload %r" % (name,))


WORKLOADS = (
    "interactive_read", "adhoc_compile", "analytic_scan", "update_txn",
    "mixed_rw",
)
