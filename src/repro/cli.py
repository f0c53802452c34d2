"""An interactive Cypher shell, one-shot query runner and bench driver.

Usage::

    python -m repro.cli                       # REPL on an empty graph
    python -m repro.cli --graph data.json     # load a JSON graph
    python -m repro.cli --query "MATCH (n) RETURN count(*) AS n"
    python -m repro.cli explain "MATCH ..."   # which path runs it, and why
    python -m repro.cli selftest              # the smoke-marked tier-1
                                              # tests (pytest -m smoke)
    python -m repro.cli ingest dir/           # bulk-load CSV tables
                                              # (--generate SCALE for the
                                              # LDBC-style social dataset)
    python -m repro.cli bench                 # run the benchmark suite;
                                              # medians -> BENCH_pipeline.json

Inside the REPL, lines ending in ``;`` (or a single complete clause line)
execute as Cypher; special commands start with ``:``:

    :help               this text
    :schema             labels, relationship types, counts, indexes,
                        plan-cache/pipeline and snapshot counters
    :explain <query>    show the physical plan (with access-path estimates),
                        plan-cache (with pipelines compiled / reused /
                        contended) and snapshot counters
    :index              list property indexes
    :index :L(k)        create a property index on (label L, key k)
    :index :L(k1,k2)    create a composite index over the key tuple
    :index drop :L(k)   drop one again (composites: :index drop :L(k1,k2))
    :reach              list reachability indexes
    :reach :R|S         create a reachability index over types R and S
    :reach *            create the all-types reachability index
    :reach drop :R|S    drop one (``:reach drop *`` for all-types)
    :mode <m>           auto | interpreter | planner | row | batch
    :begin              open a transaction; statements accumulate
    :commit             make the transaction's changes visible atomically
    :rollback           undo everything since :begin
    :timeout <ms>       per-statement time limit (0 or "off" disables)
    :save <path>        write the current graph as JSON
    :load <path>        replace the graph from JSON
    :quit               leave

Timed-out, cancelled or refused statements report a one-line ``error:``
message — an interrupted write is rolled back, never half-applied.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from repro.exceptions import CypherError
from repro.graph.io import dump_json, load_json
from repro.graph.store import MemoryGraph
from repro.runtime.engine import MODES, CypherEngine


def _cache_line(cache_info, pipelines):
    """One-line plan-cache report for the explain outputs.

    ``pipelines`` is ``engine.pipeline_info()``: what the hits skipped
    below the plan.  "via shape" counts the hits of ad hoc texts whose
    literals were lifted into parameters; with "shape(s) known" beside
    the misses it shows a stream of distinct texts costing one plan per
    shape.
    """
    rate = cache_info["hit_rate"]
    return (
        "plan cache: %d hit(s), %d miss(es)%s; %d via shape, "
        "%d shape(s) known; %d revalidated, "
        "evicted: %d schema, %d drift; pipelines: %d compiled, "
        "%d reused, %d contended"
    ) % (
        cache_info["hits"],
        cache_info["misses"],
        "" if rate is None else " (hit rate %.0f%%)" % (rate * 100),
        cache_info["lifted_hits"],
        cache_info["shapes"],
        cache_info["revalidated"],
        cache_info["evicted_schema"],
        cache_info["evicted_drift"],
        pipelines["compiled"],
        pipelines["reused"],
        pipelines["contended"],
    )


def _lift_line(cache_info):
    """Whether a run of the explained text would be keyed by its shape."""
    return "auto-parameterised: %s" % ("yes" if cache_info["lifts"] else "no")


def _snapshot_line(info):
    """One-line snapshot report (``engine.snapshot_info()``)."""
    pins = info["pins"]
    preimages = pins["preimages"]
    return (
        "snapshots: %d pin(s) taken, %d refused, %d live; pre-images: "
        "%d node, %d relationship, %d adjacency (largest delta %d); "
        "reads: %d clean, %d dirty"
    ) % (
        pins["taken"], pins["refused"], pins["live"],
        preimages["node"], preimages["relationship"], preimages["adjacency"],
        pins["largest_delta"], info["clean_reads"], info["dirty_reads"],
    )


#: ``:Label(key)`` / ``:Label(k1,k2,…)`` — the index spec syntax of
#: ``:index`` and friends; several keys declare a composite index.
_INDEX_SPEC = re.compile(r"^:?(\w+)\((\w+(?:\s*,\s*\w+)*)\)$")


def _parse_index_spec(spec):
    """``(label, key tuple)`` from an index spec, or None."""
    match = _INDEX_SPEC.match(spec)
    if match is None:
        return None
    keys = tuple(key.strip() for key in match.group(2).split(","))
    return match.group(1), keys


def _index_display(label, key):
    """``:Label(k1,k2)`` from a public index key (str or tuple)."""
    keys = (key,) if isinstance(key, str) else key
    return ":%s(%s)" % (label, ",".join(keys))

#: ``:R|S`` or ``*`` — the type-set syntax of ``:reach`` and friends.
_REACH_SPEC = re.compile(r"^(?:\*|:?(\w+(?:\|\w+)*))$")


def _parse_reach_spec(spec):
    """``(ok, types)`` from a ``:reach`` type-set argument."""
    match = _REACH_SPEC.match(spec)
    if match is None:
        return False, None
    if match.group(1) is None:
        return True, None
    return True, tuple(match.group(1).split("|"))


def _reach_display(types):
    return "<any type>" if types is None else ":" + "|".join(types)


def _access_path_lines(access_paths):
    """Per-scan ``estimated vs actual`` report lines for profiled runs."""
    if not access_paths:
        return ["access paths: none (no scan operators)"]
    lines = ["access paths (estimated vs actual rows):"]
    for record in access_paths:
        estimated = record["estimated_rows"]
        lines.append(
            "  %-12s via %-24s est≈%s actual=%d" % (
                record["variable"],
                record["entry"],
                "?" if estimated is None else "%d" % round(estimated),
                record["actual_rows"],
            )
        )
    return lines


class Shell:
    """The REPL state machine; testable without a terminal."""

    def __init__(self, engine=None, output=None):
        self.engine = engine or CypherEngine(MemoryGraph())
        self.output = output if output is not None else sys.stdout
        self.running = True
        #: The open :meth:`CypherEngine.session` between :begin and
        #: :commit/:rollback; None when statements auto-commit.
        self.session = None
        #: Per-statement timeout in milliseconds (None = unlimited).
        self.timeout_ms = None

    def write(self, text=""):
        self.output.write(text + "\n")

    # -- command handling ---------------------------------------------------

    def handle(self, line):
        """Process one input line; returns False when the shell should exit."""
        line = line.strip()
        if not line:
            return self.running
        if line.startswith(":"):
            self._command(line)
        else:
            self._query(line.rstrip(";"))
        return self.running

    def _command(self, line):
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (":quit", ":exit", ":q"):
            self.running = False
        elif command == ":help":
            self.write(__doc__.strip())
        elif command == ":schema":
            self._schema()
        elif command == ":index":
            self._index(argument)
        elif command == ":reach":
            self._reach(argument)
        elif command == ":mode":
            if argument in MODES:
                self.engine.mode = argument
                self.write("mode set to %s" % argument)
            else:
                self.write("usage: :mode " + "|".join(MODES))
        elif command == ":begin":
            self._begin()
        elif command == ":commit":
            self._finish_transaction("commit")
        elif command == ":rollback":
            self._finish_transaction("rollback")
        elif command == ":timeout":
            self._timeout(argument)
        elif command == ":explain":
            if not argument:
                self.write("usage: :explain <query>")
                return
            try:
                executed_by, reason, plan_text, cache_info, mode = (
                    self.engine.explain_info(argument)
                )
            except CypherError as error:
                self.write("error: %s" % error)
                return
            self.write("executed by: %s" % executed_by)
            if mode:
                self.write("execution mode: %s" % mode)
            if reason:
                self.write("fallback reason: %s" % reason)
            if plan_text:
                self.write(plan_text)
            self.write(_lift_line(cache_info))
            self.write(_cache_line(cache_info, self.engine.pipeline_info()))
            self.write(_snapshot_line(self.engine.snapshot_info()))
        elif command == ":save":
            if not argument:
                self.write("usage: :save <path>")
                return
            dump_json(self.engine.graph, argument)
            self.write("saved %s" % argument)
        elif command == ":load":
            if not argument:
                self.write("usage: :load <path>")
                return
            if self.session is not None:
                self.write("error: a transaction is open; "
                           ":commit or :rollback before :load")
                return
            try:
                graph = load_json(argument)
            except (OSError, CypherError, ValueError) as error:
                self.write("error: %s" % error)
                return
            self.engine.graph = graph
            self.engine.catalog.register("default", graph)
            self.engine.catalog.set_default("default")
            self.write(
                "loaded %d nodes, %d relationships"
                % (graph.node_count(), graph.relationship_count())
            )
        else:
            self.write("unknown command %s (try :help)" % command)

    def _schema(self):
        graph = self.engine.graph
        self.write(
            "%d nodes, %d relationships"
            % (graph.node_count(), graph.relationship_count())
        )
        labels = getattr(graph, "all_labels", lambda: [])()
        types = getattr(graph, "all_types", lambda: [])()
        if labels:
            self.write("labels: " + ", ".join(labels))
        if types:
            self.write("relationship types: " + ", ".join(types))
        indexes = getattr(graph, "indexes", lambda: [])()
        if indexes:
            self.write(
                "indexes: "
                + ", ".join(_index_display(*pair) for pair in indexes)
            )
        reach = getattr(graph, "reachability_indexes", lambda: [])()
        if reach:
            self.write(
                "reachability indexes: "
                + ", ".join(_reach_display(types) for types in reach)
            )
        self.write(
            _cache_line(
                self.engine.plan_cache_info(), self.engine.pipeline_info()
            )
        )
        self.write(_snapshot_line(self.engine.snapshot_info()))

    def _index(self, argument):
        """``:index`` — list, create or drop property indexes."""
        graph = self.engine.graph
        if not argument:
            pairs = graph.indexes()
            if not pairs:
                self.write("no property indexes")
            else:
                stats = graph.index_statistics()
                for label, key in pairs:
                    ndv, entries = stats[(label, key)]
                    self.write(
                        "%s — %d distinct value(s), %d entr%s"
                        % (_index_display(label, key), ndv, entries,
                           "y" if entries == 1 else "ies")
                    )
            return
        dropping = argument.startswith("drop ")
        spec = argument[5:].strip() if dropping else argument
        parsed = _parse_index_spec(spec)
        if parsed is None:
            self.write("usage: :index [drop] :Label(key[,key…])")
            return
        label, keys = parsed
        display = _index_display(label, keys)
        if dropping:
            existed = graph.drop_index(
                label, keys[0] if len(keys) == 1 else keys
            )
            self.write(
                "dropped index %s" % display
                if existed
                else "no index %s" % display
            )
        elif graph.create_index(label, *keys):
            self.write("created index %s" % display)
        else:
            self.write("index %s already exists" % display)

    def _reach(self, argument):
        """``:reach`` — list, create or drop reachability indexes."""
        graph = self.engine.graph
        if not argument:
            declared = graph.reachability_indexes()
            if not declared:
                self.write("no reachability indexes")
            else:
                stats = graph.reachability_statistics()
                for types in declared:
                    facts = stats[types]
                    self.write(
                        "%s — %d node(s), %d edge(s), %d component(s)"
                        % (_reach_display(types), facts["nodes"],
                           facts["edges"], facts["components"])
                    )
            return
        dropping = argument.startswith("drop ")
        spec = argument[5:].strip() if dropping else argument
        ok, types = _parse_reach_spec(spec)
        if not ok:
            self.write("usage: :reach [drop] :T|U  (or * for all types)")
            return
        if dropping:
            existed = graph.drop_reachability_index(types)
            self.write(
                "dropped reachability index %s" % _reach_display(types)
                if existed
                else "no reachability index %s" % _reach_display(types)
            )
        elif graph.create_reachability_index(types):
            self.write(
                "created reachability index %s" % _reach_display(types)
            )
        else:
            self.write(
                "reachability index %s already exists" % _reach_display(types)
            )

    def _begin(self):
        """``:begin`` — open a session transaction for later statements."""
        if self.session is not None:
            self.write("error: a transaction is already open")
            return
        try:
            session = self.engine.session()
            session.__enter__()
            session.begin()
        except CypherError as error:
            self.write("error: %s" % error)
            return
        self.session = session
        self.write("transaction begun")

    def _finish_transaction(self, action):
        """``:commit`` / ``:rollback`` — close the open transaction."""
        session = self.session
        if session is None:
            self.write("error: no open transaction (try :begin)")
            return
        self.session = None
        try:
            getattr(session, action)()
        except CypherError as error:
            self.write("error: %s" % error)
            return
        finally:
            session.close()
        self.write("transaction %s" % (
            "committed" if action == "commit" else "rolled back"))

    def _timeout(self, argument):
        """``:timeout <ms>`` — per-statement limit; 0 or "off" disables."""
        if not argument:
            self.write(
                "timeout: unlimited" if self.timeout_ms is None
                else "timeout: %d ms" % self.timeout_ms
            )
            return
        if argument in ("off", "0"):
            self.timeout_ms = None
            self.write("timeout disabled")
            return
        try:
            millis = int(argument)
        except ValueError:
            millis = -1
        if millis <= 0:
            self.write("usage: :timeout <milliseconds>|off")
            return
        self.timeout_ms = millis
        self.write("timeout set to %d ms" % millis)

    def _query(self, text):
        timeout = None if self.timeout_ms is None else self.timeout_ms / 1000.0
        try:
            if self.session is not None:
                result = self.session.run(text, timeout=timeout)
            else:
                result = self.engine.run(text, timeout=timeout)
        except CypherError as error:
            self.write("error: %s" % error)
            return
        if result.columns:
            self.write(result.pretty())
            self.write("(%d row%s)" % (len(result), "" if len(result) == 1 else "s"))
        else:
            self.write("ok")
        for name, graph in result.graphs.items():
            self.write(
                "graph %r: %d nodes, %d relationships"
                % (name, graph.node_count(), graph.relationship_count())
            )

    # -- loop ------------------------------------------------------------------

    def run(self, lines=None):
        """Drive the shell from an iterable of lines (or stdin)."""
        source = lines if lines is not None else _stdin_lines()
        for line in source:
            if not self.handle(line):
                break


def _stdin_lines():
    while True:
        try:
            yield input("cypher> ")
        except EOFError:
            return


def _repo_dir(name):
    """``<repo>/<name>``, the directory beside the package, or None.

    None comes after an ``error:`` line on stderr; the subcommand that
    needs the directory then exits 2.
    """
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        name,
    )
    if os.path.isdir(path):
        return path
    print("error: no %s/ directory next to the package (%s)" % (name, path),
          file=sys.stderr)
    return None


def _run_pytest(argv, **env):
    """``pytest.main(argv)`` with ``env`` set for the call only (a None
    value leaves its variable alone)."""
    import pytest

    env = {name: value for name, value in env.items() if value is not None}
    previous = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        return pytest.main(argv)
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def bench_main(argv=None):
    """``python -m repro.cli bench``: run the perf suite, log medians.

    Drives pytest over the repository's ``benchmarks/`` directory; the
    benchmark conftest writes the per-benchmark median wall-times to
    ``BENCH_pipeline.json`` so successive PRs accumulate a perf
    trajectory.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli bench",
        description="run the benchmark suite and record medians",
    )
    parser.add_argument(
        "--output",
        help="path for the medians JSON (default: <repo>/BENCH_pipeline.json)",
    )
    parser.add_argument(
        "-k", dest="filter", help="only benchmarks matching this pytest -k expression"
    )
    parser.add_argument(
        "--pipeline-only",
        action="store_true",
        help="run only the p1/p2/p3/p4 pipeline benchmarks",
    )
    arguments = parser.parse_args(argv)

    bench_dir = _repo_dir("benchmarks")
    if bench_dir is None:
        return 2
    # bench_*.py does not match pytest's default python_files pattern, so
    # the files are always passed explicitly.
    prefix = "bench_p" if arguments.pipeline_only else "bench_"
    targets = [
        os.path.join(bench_dir, name)
        for name in sorted(os.listdir(bench_dir))
        if name.startswith(prefix) and name.endswith(".py")
    ]
    pytest_argv = ["-q"] + targets
    if arguments.filter:
        pytest_argv += ["-k", arguments.filter]
    return _run_pytest(pytest_argv, BENCH_PIPELINE_PATH=arguments.output)


def explain_main(argv=None):
    """``python -m repro.cli explain <query>``: execution-path report.

    Prints which path (slotted planner vs reference interpreter) would
    execute the query, the fallback reason if any, and the physical plan
    tree on the planner path — the observable face of the coverage
    metadata (``QueryResult.executed_by``), so coverage regressions are
    one shell command away.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli explain",
        description="show which execution path would run a query",
    )
    parser.add_argument("query", help="the Cypher query to explain")
    parser.add_argument("--graph", help="JSON graph file to plan against")
    parser.add_argument(
        "--index",
        action="append",
        default=[],
        metavar=":Label(key[,key...])",
        help="create a property index before planning (repeatable)",
    )
    parser.add_argument(
        "--reach-index",
        action="append",
        default=[],
        metavar=":T|U",
        help="create a reachability index over a relationship-type set "
        "before planning (* for all types; repeatable)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also execute the query and report estimated vs actual "
        "rows per access path",
    )
    arguments = parser.parse_args(argv)
    graph = load_json(arguments.graph) if arguments.graph else MemoryGraph()
    engine = CypherEngine(graph)
    for spec in arguments.index:
        parsed = _parse_index_spec(spec)
        if parsed is None:
            print("error: bad index spec %r (want :Label(key[,key…]))"
                  % spec, file=sys.stderr)
            return 2
        engine.create_index(parsed[0], *parsed[1])
    for spec in arguments.reach_index:
        ok, types = _parse_reach_spec(spec)
        if not ok:
            print("error: bad reachability spec %r (want :T|U or *)" % spec,
                  file=sys.stderr)
            return 2
        engine.create_reachability_index(types)
    try:
        executed_by, reason, plan_text, cache_info, mode = (
            engine.explain_info(arguments.query)
        )
    except CypherError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    print("executed by: %s" % executed_by)
    if mode:
        print("execution mode: %s" % mode)
    if reason:
        print("fallback reason: %s" % reason)
    if plan_text:
        print(plan_text)
    print(_lift_line(cache_info))
    print(_cache_line(cache_info, engine.pipeline_info()))
    print(_snapshot_line(engine.snapshot_info()))
    if arguments.profile and executed_by == "planner":
        result = engine.run(arguments.query, profile=True)
        for line in _access_path_lines(result.access_paths):
            print(line)
        print("(%d row%s)" % (len(result), "" if len(result) == 1 else "s"))
    return 0


def ingest_main(argv=None):
    """``python -m repro.cli ingest``: bulk-load CSV tables into a store.

    Loads neo4j-admin-style CSV files (``:ID(ns)``/``:LABEL`` node
    tables, ``:START_ID``/``:END_ID``/``:TYPE`` relationship tables,
    typed property columns like ``age:int``) through the streaming
    bulk-ingest path with deferred index builds, prints the ingest
    report, and optionally saves the resulting graph as JSON.  With
    ``--generate`` the LDBC-style social dataset is generated at the
    given scale factor first and its CSV files become the input.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli ingest",
        description="bulk-load CSV tables through the streaming ingest path",
    )
    parser.add_argument(
        "sources",
        nargs="*",
        help="CSV files or a directory of them (node tables load first)",
    )
    parser.add_argument(
        "--generate",
        type=float,
        metavar="SCALE",
        help="generate the LDBC-style social dataset at this scale factor "
        "and ingest its CSV files",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    parser.add_argument(
        "--out",
        help="directory for generated CSV files (default: a temp directory)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=1000,
        help="rows per bulk create (default 1000; 1 = per-row baseline)",
    )
    parser.add_argument(
        "--no-defer",
        action="store_true",
        help="maintain declared indexes per row instead of one rebuild "
        "at ingest end",
    )
    parser.add_argument(
        "--index",
        action="append",
        default=[],
        metavar=":Label(key[,key...])",
        help="declare a property index before ingest (repeatable)",
    )
    parser.add_argument(
        "--reach-index",
        action="append",
        default=[],
        metavar=":T|U",
        help="declare a reachability index before ingest (* for all "
        "types; repeatable)",
    )
    parser.add_argument("--save", help="write the loaded graph as JSON")
    arguments = parser.parse_args(argv)
    if bool(arguments.sources) == (arguments.generate is not None):
        print("error: pass CSV sources or --generate SCALE (not both)",
              file=sys.stderr)
        return 2
    graph = MemoryGraph()
    for spec in arguments.index:
        parsed = _parse_index_spec(spec)
        if parsed is None:
            print("error: bad index spec %r (want :Label(key[,key…]))"
                  % spec, file=sys.stderr)
            return 2
        graph.create_index(parsed[0], *parsed[1])
    for spec in arguments.reach_index:
        ok, types = _parse_reach_spec(spec)
        if not ok:
            print("error: bad reachability spec %r (want :T|U or *)" % spec,
                  file=sys.stderr)
            return 2
        graph.create_reachability_index(types)

    from repro.graph.ingest import IngestError, ingest_csv

    sources = arguments.sources
    temp_dir = None
    if arguments.generate is not None:
        from repro.datasets.ldbc_social import generate

        dataset = generate(scale=arguments.generate, seed=arguments.seed)
        directory = arguments.out
        if directory is None:
            import tempfile

            temp_dir = tempfile.TemporaryDirectory(prefix="repro-ldbc-")
            directory = temp_dir.name
        sources = dataset.write_csv(directory)
        print(
            "generated scale %g (seed %d): %s"
            % (
                arguments.generate,
                arguments.seed,
                ", ".join(
                    "%d %s" % (count, noun)
                    for noun, count in dataset.counts.items()
                ),
            )
        )
    try:
        report = ingest_csv(
            graph,
            sources,
            batch_size=arguments.batch_size,
            defer_indexes=not arguments.no_defer,
        )
    except (IngestError, OSError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    finally:
        if temp_dir is not None and arguments.out is None:
            temp_dir.cleanup()
    print("ingested " + report.summary())
    for name, kind, rows in report.tables:
        print("  %-16s %-13s %d row(s)" % (name, kind, rows))
    print(
        "store: %d nodes, %d relationships"
        % (graph.node_count(), graph.relationship_count())
    )
    if arguments.save:
        dump_json(graph, arguments.save)
        print("saved %s" % arguments.save)
    return 0


def selftest_main(argv=None):
    """``python -m repro.cli selftest``: the tier-1 smoke gate.

    Runs ``pytest -m smoke`` over the repository's ``tests/``: the
    interpreter / row / batch differentials, index, plan-cache, snapshot,
    reachability, crash-recovery and macro-workload cases and five TCK
    features, coverage tracing off.  Exit 0 when every one passes, 1 on
    any failure (no smoke test collected included), 2 without a
    ``tests/`` directory — so CI and pre-commit hooks can call it
    directly.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cli selftest",
        description="run the smoke-marked tier-1 tests (pytest -m smoke)",
    )
    parser.parse_args(argv)
    tests_dir = _repo_dir("tests")
    if tests_dir is None:
        return 2
    code = _run_pytest(
        ["-q", "-p", "no:cacheprovider", "-m", "smoke", tests_dir],
        REPRO_COVERAGE="0",
    )
    if code == 0:
        print("selftest passed")
        return 0
    print("selftest FAILED (pytest exit code %d)" % code)
    return 1


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest_main(argv[1:])
    if argv and argv[0] == "ingest":
        return ingest_main(argv[1:])
    parser = argparse.ArgumentParser(description="repro Cypher shell")
    parser.add_argument("--graph", help="JSON graph file to load")
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="auto",
    )
    arguments = parser.parse_args(argv)
    graph = load_json(arguments.graph) if arguments.graph else MemoryGraph()
    engine = CypherEngine(graph, mode=arguments.mode)
    shell = Shell(engine)
    if arguments.query:
        shell.handle(arguments.query)
        return 0
    shell.write("repro Cypher shell — :help for commands, :quit to leave")
    shell.run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
