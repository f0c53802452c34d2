"""Incremental reachability indexes over the type-segmented adjacency.

A :class:`ReachabilityIndex` answers "is there a directed path from node
``u`` to node ``v`` using only relationships of my type set?" in O(1)
for most pairs, via the XPath-accelerator construction:

* the indexed subgraph is condensed into strongly connected components
  (iterative Tarjan — chains in this codebase run thousands deep, far
  past the recursion limit), so reachability questions reduce to the
  component DAG;
* one DFS over that DAG assigns **interval labels**: pre/post-order
  stamps over the spanning forest (tree containment certifies YES), and
  GRAIL-style ``[low, rank]`` post-order intervals over *all* edges
  (non-containment certifies NO);
* the rare pairs neither label decides fall back to a label-pruned DFS
  over the component DAG, memoised per label generation.

Mutation maintenance is **eager for structure, lazy for labels**: every
``add_edge``/``remove_edge`` keeps the condensation exact — cycle-closing
inserts merge the components on any path between the endpoints, intra-
component deletes re-run Tarjan locally over the old component's members
(only when the deleted edge's source no longer reaches its target inside
the component; a redundant edge needs one early-exit search, no Tarjan)
— while the interval labels are recomputed on the first query after a
structural change.  Both mutators are idempotent per relationship id so
that crash-replay and undo-replay converge, matching the property-index
discipline in :mod:`repro.graph.store`.

``snapshot()`` returns a canonical form (components as sorted member-id
tuples, inter-component edge counts keyed by minimum members) in which
internal component numbering cancels out, so the maintenance ≡ rebuild
differential can compare an incrementally maintained index against a
fresh build byte-identically.
"""

from __future__ import annotations

import threading

__all__ = ["ReachabilityIndex", "best_covering", "reachability_key"]


def _id_value(identifier):
    """Canonical scalar for a node/rel id — ids are otherwise opaque."""
    return getattr(identifier, "value", identifier)


def reachability_key(types):
    """Canonical dict key for a declared type set: None or a frozenset."""
    if types is None:
        return None
    key = frozenset(types)
    return key if key else None


def best_covering(needed, available):
    """Pick the declared type set that best covers a traversal.

    ``needed`` is the pattern's resolved type frozenset (None = any
    type); ``available`` iterates declared keys (None = all types).
    Preference order: exact match, then the smallest strict superset,
    then the all-types index; an untyped traversal is only covered by
    the all-types index.  Returns the chosen key, or the sentinel
    ``best_covering.MISS`` when nothing covers the pattern — ``None`` is
    a valid (all-types) result, so absence needs its own marker.
    """
    miss = best_covering.MISS
    if needed is None:
        return None if any(key is None for key in available) else miss
    best = miss
    best_size = None
    for key in available:
        if key is None:
            if best is miss:
                best = None  # usable, but any typed superset is tighter
            continue
        if key == needed:
            return key
        if key >= needed and (best_size is None or len(key) < best_size):
            best, best_size = key, len(key)
    return best


best_covering.MISS = object()


class ReachabilityIndex:
    """Condensed-SCC reachability with lazily refreshed interval labels."""

    def __init__(self, types=None):
        self.types = reachability_key(types)
        self._edges = {}  # RelId -> (source NodeId, target NodeId)
        self._node_out = {}  # NodeId -> set of RelId
        self._node_in = {}  # NodeId -> set of RelId
        self._comp_of = {}  # NodeId -> component id
        self._members = {}  # component id -> set of NodeId
        self._succ = {}  # comp -> {comp: edge count}, never empty/zero
        self._pred = {}  # comp -> {comp: edge count}, never empty/zero
        self._internal = {}  # comp -> intra-component edge count, never zero
        self._next_comp = 0
        self._generation = 0
        self._labels = None  # (generation, pre, post, rank, low)
        self._memo = {}  # (comp, comp) -> bool, valid for current labels
        self._diameter = None  # (generation, longest DAG path in edges)
        self._lock = threading.Lock()

    # -- type coverage ----------------------------------------------------

    def covers(self, rel_type):
        """True if relationships of ``rel_type`` belong in this index."""
        return self.types is None or rel_type in self.types

    # -- bookkeeping helpers ----------------------------------------------

    def _touch(self):
        self._generation += 1
        if self._memo:
            self._memo.clear()

    def _track(self, node):
        if node not in self._comp_of:
            comp = self._next_comp
            self._next_comp += 1
            self._comp_of[node] = comp
            self._members[comp] = {node}

    def _untrack_if_isolated(self, node):
        if self._node_out.get(node) or self._node_in.get(node):
            return
        self._node_out.pop(node, None)
        self._node_in.pop(node, None)
        comp = self._comp_of.pop(node, None)
        if comp is not None:
            # An edge-less node is necessarily its own singleton SCC with
            # no DAG neighbours, so dropping it leaves no dangling counts.
            del self._members[comp]
            self._succ.pop(comp, None)
            self._pred.pop(comp, None)
            self._internal.pop(comp, None)

    @staticmethod
    def _bump(table, a, b, count=1):
        row = table.get(a)
        if row is None:
            table[a] = {b: count}
        else:
            row[b] = row.get(b, 0) + count

    @staticmethod
    def _drop(table, a, b, count=1):
        row = table[a]
        remaining = row[b] - count
        if remaining:
            row[b] = remaining
        else:
            del row[b]
            if not row:
                del table[a]

    def _dag_reaches(self, start, goal):
        """DFS over the component DAG — used while labels may be stale."""
        if start == goal:
            return True
        stack = [start]
        seen = {start}
        while stack:
            for nxt in self._succ.get(stack.pop(), ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- mutation ----------------------------------------------------------

    def add_edge(self, rel_id, source, target):
        """Register a relationship; no-op when ``rel_id`` is present."""
        if rel_id in self._edges:
            return
        self._edges[rel_id] = (source, target)
        self._node_out.setdefault(source, set()).add(rel_id)
        self._node_in.setdefault(target, set()).add(rel_id)
        self._track(source)
        self._track(target)
        cu = self._comp_of[source]
        cv = self._comp_of[target]
        if cu == cv:
            self._internal[cu] = self._internal.get(cu, 0) + 1
        elif self._dag_reaches(cv, cu):
            self._merge_cycle(cu, cv)
        else:
            self._bump(self._succ, cu, cv)
            self._bump(self._pred, cv, cu)
        self._touch()

    def _merge_cycle(self, cu, cv):
        """Adding cu→cv closed a cycle: collapse every comp between them.

        The merge set is forward(cv) ∩ backward(cu) — exactly the
        components lying on some cv→…→cu path, all of which become one
        SCC once the new edge exists.
        """
        forward = {cv}
        stack = [cv]
        while stack:
            for nxt in self._succ.get(stack.pop(), ()):
                if nxt not in forward:
                    forward.add(nxt)
                    stack.append(nxt)
        merge = set()
        stack = [cu]
        seen = {cu}
        while stack:
            comp = stack.pop()
            if comp in forward:
                merge.add(comp)
            for nxt in self._pred.get(comp, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        # Backward reachability alone over-collects (ancestors of cu not
        # on a cv path); intersecting with forward(cv) trims to the cycle.
        merge &= forward
        merge.add(cu)
        merge.add(cv)
        rep = max(merge, key=lambda comp: len(self._members[comp]))
        internal = 1  # the new cu→cv edge itself becomes intra-component
        external_succ = {}
        external_pred = {}
        for comp in merge:
            internal += self._internal.pop(comp, 0)
            for other, count in self._succ.pop(comp, {}).items():
                if other in merge:
                    internal += count
                else:
                    external_succ[other] = external_succ.get(other, 0) + count
            for other, count in self._pred.pop(comp, {}).items():
                if other not in merge:
                    external_pred[other] = external_pred.get(other, 0) + count
        for other, count in external_succ.items():
            row = self._pred[other]
            for comp in merge:
                row.pop(comp, None)
            row[rep] = count
        for other, count in external_pred.items():
            row = self._succ[other]
            for comp in merge:
                row.pop(comp, None)
            row[rep] = count
        members = self._members[rep]
        for comp in merge:
            if comp == rep:
                continue
            for node in self._members.pop(comp):
                self._comp_of[node] = rep
                members.add(node)
        self._internal[rep] = internal
        if external_succ:
            self._succ[rep] = external_succ
        if external_pred:
            self._pred[rep] = external_pred

    def remove_edge(self, rel_id):
        """Forget a relationship; no-op when ``rel_id`` is unknown."""
        endpoints = self._edges.pop(rel_id, None)
        if endpoints is None:
            return
        source, target = endpoints
        self._node_out[source].discard(rel_id)
        self._node_in[target].discard(rel_id)
        cu = self._comp_of[source]
        cv = self._comp_of[target]
        if cu != cv:
            self._drop(self._succ, cu, cv)
            self._drop(self._pred, cv, cu)
        else:
            remaining = self._internal[cu] - 1
            if remaining:
                self._internal[cu] = remaining
            else:
                del self._internal[cu]
            members = self._members[cu]
            if len(members) > 1 and not self._reaches_within(
                source, target, members
            ):
                self._resplit(cu)
        self._untrack_if_isolated(source)
        self._untrack_if_isolated(target)
        self._touch()

    def _reaches_within(self, source, target, members):
        """Early-exit DFS: does ``source`` still reach ``target`` in ``members``?

        Removing ``source→target`` from a strongly connected component
        leaves it strongly connected iff this holds (every old path
        through the edge re-routes over the surviving one), so a delete
        of a redundant edge — the common case inside a dense component —
        never pays for Tarjan.
        """
        if source == target:
            return True
        edges = self._edges
        node_out = self._node_out
        stack = [source]
        seen = {source}
        while stack:
            for rel in node_out.get(stack.pop(), ()):
                nxt = edges[rel][1]
                if nxt == target:
                    return True
                if nxt not in seen and nxt in members:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _resplit(self, comp):
        """Re-run Tarjan locally: an edge delete broke ``comp`` apart.

        Only called once :meth:`_reaches_within` has failed, so the
        component is known to split into at least two.
        """
        members = self._members[comp]
        sccs = self._tarjan(members, local=True)
        old_succ = self._succ.pop(comp, {})
        old_pred = self._pred.pop(comp, {})
        self._internal.pop(comp, None)
        del self._members[comp]
        for scc in sccs:
            cid = self._next_comp
            self._next_comp += 1
            self._members[cid] = scc
            for node in scc:
                self._comp_of[node] = cid
        # External neighbours forget the dead component id entirely; the
        # incident-edge sweep below recounts every boundary edge against
        # the fresh component ids.
        for other in old_succ:
            self._drop_all(self._pred, other, comp)
        for other in old_pred:
            self._drop_all(self._succ, other, comp)
        counted = set()
        for node in members:
            for rel in self._node_out.get(node, ()):
                self._recount(rel, counted)
            for rel in self._node_in.get(node, ()):
                self._recount(rel, counted)

    @staticmethod
    def _drop_all(table, a, b):
        row = table.get(a)
        if row is not None:
            row.pop(b, None)
            if not row:
                del table[a]

    def _recount(self, rel, counted):
        if rel in counted:
            return
        counted.add(rel)
        source, target = self._edges[rel]
        cu = self._comp_of[source]
        cv = self._comp_of[target]
        if cu == cv:
            self._internal[cu] = self._internal.get(cu, 0) + 1
        else:
            self._bump(self._succ, cu, cv)
            self._bump(self._pred, cv, cu)

    # -- bulk build --------------------------------------------------------

    def build(self, edges):
        """(Re)build from scratch — one global Tarjan over ``edges``.

        ``edges`` iterates ``(rel_id, source, target)`` triples.  This is
        the genuinely independent construction path the maintenance ≡
        rebuild differential compares incremental mutation against.
        """
        self._edges = {}
        self._node_out = {}
        self._node_in = {}
        self._comp_of = {}
        self._members = {}
        self._succ = {}
        self._pred = {}
        self._internal = {}
        for rel_id, source, target in edges:
            if rel_id in self._edges:
                continue
            self._edges[rel_id] = (source, target)
            self._node_out.setdefault(source, set()).add(rel_id)
            self._node_in.setdefault(target, set()).add(rel_id)
            self._node_out.setdefault(target, set())
            self._node_in.setdefault(source, set())
        nodes = set(self._node_out)
        for scc in self._tarjan(nodes, local=False):
            cid = self._next_comp
            self._next_comp += 1
            self._members[cid] = scc
            for node in scc:
                self._comp_of[node] = cid
        counted = set()
        for node in nodes:
            for rel in self._node_out.get(node, ()):
                self._recount(rel, counted)
        self._touch()
        return self

    def _tarjan(self, nodes, local):
        """Iterative Tarjan over ``nodes``; ``local`` restricts edges to
        targets inside ``nodes`` (the re-split case)."""
        index = {}
        lowlink = {}
        on_stack = set()
        scc_stack = []
        sccs = []
        counter = [0]

        def successors(node):
            for rel in self._node_out.get(node, ()):
                target = self._edges[rel][1]
                if not local or target in nodes:
                    yield target

        for root in sorted(nodes):
            if root in index:
                continue
            work = [(root, successors(root))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            scc_stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = lowlink[nxt] = counter[0]
                        counter[0] += 1
                        scc_stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, successors(nxt)))
                        advanced = True
                        break
                    if nxt in on_stack:
                        if index[nxt] < lowlink[node]:
                            lowlink[node] = index[nxt]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    scc = set()
                    while True:
                        member = scc_stack.pop()
                        on_stack.discard(member)
                        scc.add(member)
                        if member == node:
                            break
                    sccs.append(scc)
        return sccs

    # -- interval labels ---------------------------------------------------

    def _ensure_labels(self):
        labels = self._labels
        if labels is not None and labels[0] == self._generation:
            return labels
        with self._lock:
            labels = self._labels
            if labels is not None and labels[0] == self._generation:
                return labels
            labels = self._compute_labels()
            self._labels = labels
            self._memo = {}
            return labels

    def _compute_labels(self):
        """One iterative DFS over the component DAG yields both labels.

        * ``pre``/``post``: a shared clock over the spanning forest of
          first-visit edges — containment certifies reachability (YES);
        * ``rank``: global post-order finish rank, ``low``: min rank over
          everything reachable (GRAIL) — ``[low(v), rank(v)]`` not inside
          ``[low(u), rank(u)]`` certifies *non*-reachability (NO).

        Cross edges in a DAG always point at finished nodes, so a
        successor's ``low`` is final whenever it is consulted.
        """
        pre = {}
        post = {}
        rank = {}
        low = {}
        clock = [0]
        finish = [0]
        roots = sorted(
            comp for comp in self._members if comp not in self._pred
        )

        def visit(root):
            pre[root] = clock[0]
            clock[0] += 1
            low_acc = {root: None}
            stack = [(root, iter(sorted(self._succ.get(root, ()))))]
            while stack:
                node, it = stack[-1]
                descended = False
                for nxt in it:
                    if nxt not in pre:
                        pre[nxt] = clock[0]
                        clock[0] += 1
                        low_acc[nxt] = None
                        stack.append(
                            (nxt, iter(sorted(self._succ.get(nxt, ()))))
                        )
                        descended = True
                        break
                    seen_low = low_acc[node]
                    if seen_low is None or low[nxt] < seen_low:
                        low_acc[node] = low[nxt]
                if descended:
                    continue
                stack.pop()
                post[node] = clock[0]
                clock[0] += 1
                node_rank = finish[0]
                finish[0] += 1
                rank[node] = node_rank
                acc = low_acc.pop(node)
                low[node] = node_rank if acc is None else min(acc, node_rank)
                if stack:
                    parent = stack[-1][0]
                    seen_low = low_acc[parent]
                    if seen_low is None or low[node] < seen_low:
                        low_acc[parent] = low[node]

        # Every component of a finite DAG sits under some in-degree-zero
        # root, so visiting the roots covers the whole condensation.
        for root in roots:
            if root not in pre:
                visit(root)
        return (self._generation, pre, post, rank, low)

    # -- queries -----------------------------------------------------------

    def reachable(self, source, target):
        """Directed, zero-length-inclusive reachability between nodes."""
        if source == target:
            return True
        cu = self._comp_of.get(source)
        if cu is None:
            return False
        cv = self._comp_of.get(target)
        if cv is None:
            return False
        if cu == cv:
            return True
        return self._comp_reachable(cu, cv)

    def _comp_reachable(self, cu, cv):
        labels = self._ensure_labels()
        memo = self._memo
        key = (cu, cv)
        cached = memo.get(key)
        if cached is not None:
            return cached
        _generation, pre, post, rank, low = labels
        target_rank = rank[cv]
        target_low = low[cv]
        if not (low[cu] <= target_low and target_rank <= rank[cu]):
            memo[key] = False  # GRAIL interval excludes cv: certain NO
            return False
        target_pre = pre[cv]
        if pre[cu] <= target_pre and post[cv] <= post[cu]:
            memo[key] = True  # spanning-tree containment: certain YES
            return True
        # Undecided: label-pruned DFS over the component DAG.
        succ = self._succ
        stack = [cu]
        seen = {cu}
        found = False
        while stack:
            comp = stack.pop()
            if pre[comp] <= target_pre and post[cv] <= post[comp]:
                found = True
                break
            for nxt in succ.get(comp, ()):
                if nxt in seen:
                    continue
                if not (low[nxt] <= target_low and target_rank <= rank[nxt]):
                    continue
                seen.add(nxt)
                stack.append(nxt)
        memo[key] = found
        return found

    # -- introspection -----------------------------------------------------

    def condensation_diameter(self):
        """Longest path, in edges, of the component DAG (memoised).

        A var-length pattern whose upper bound exceeds this can cross
        at most ``diameter`` component boundaries before it must repeat
        a component, so the bound stops being the cheap reason to
        decline an index probe.  O(components + DAG edges) when stale;
        the result is cached until the next structural change (the same
        ``_generation`` bump that invalidates the interval labels).
        """
        cached = self._diameter
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        depth = {}
        succ = self._succ
        for root in self._members:
            if root in depth:
                continue
            stack = [(root, iter(succ.get(root, ())))]
            while stack:
                comp, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    if nxt not in depth:
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    depth[comp] = 1 + max(
                        (depth[nxt] for nxt in succ.get(comp, ())),
                        default=-1,
                    )
        value = max(depth.values(), default=0)
        self._diameter = (self._generation, value)
        return value

    def statistics(self):
        """Cheap size facts for the cost model and ``explain``."""
        return {
            "types": None if self.types is None else tuple(sorted(self.types)),
            "nodes": len(self._comp_of),
            "edges": len(self._edges),
            "components": len(self._members),
            "condensation_diameter": self.condensation_diameter(),
        }

    def snapshot(self):
        """Canonical structural form, independent of component numbering.

        Components become sorted tuples of member id values; the DAG's
        edge counts and intra-component counts are keyed by each
        component's minimum member id.  Two indexes over the same graph
        — however their internal ids diverged — compare equal.
        """
        comp_key = {}
        components = []
        for cid, members in self._members.items():
            ids = tuple(sorted(_id_value(node) for node in members))
            comp_key[cid] = ids[0]
            components.append(ids)
        components.sort()
        dag_edges = sorted(
            ((comp_key[a], comp_key[b]), count)
            for a, row in self._succ.items()
            for b, count in row.items()
        )
        internal = sorted(
            (comp_key[comp], count) for comp, count in self._internal.items()
        )
        return (
            None if self.types is None else tuple(sorted(self.types)),
            tuple(components),
            tuple(dag_edges),
            tuple(internal),
            tuple(sorted(_id_value(rel) for rel in self._edges)),
        )
