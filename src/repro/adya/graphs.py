"""Direct Serialization Graphs (DSG) with session edges.

Following Adya (and the paper's Appendix A.2), the DSG over a history's
committed transactions has three kinds of dependency edges plus the paper's
session edges:

* ``ww`` (write-depends): Ti installs a version of x and Tj installs x's next
  version,
* ``wr`` (read-depends): Tj reads the version of x that Ti installed,
* ``rw`` (anti-depends): Ti reads a version of x and Tj installs x's next
  version,
* ``session``: Ti precedes Tj in the same session's commit order.

Edges are annotated with the item so phenomena such as Lost Update ("all
edges are by the same data item") can filter on it.  The graph is a
:class:`networkx.MultiDiGraph` because two transactions can be related by
several dependencies at once.

:func:`build_dsg` builds the graph once per history and caches it there,
with an index of its edges grouped by kind and item, until the history
next changes.  :func:`cycles_with` draws the edges it needs from that
index, so a call costs time in the edges it selects, not in the whole
graph; a call that finds a cycle also pays O(nodes) to report it.
Callers must not mutate a graph :func:`build_dsg` returns: every
detector checking the same history shares it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.adya.history import History, INITIAL

WW = "ww"
WR = "wr"
RW = "rw"
SESSION = "session"

EDGE_TYPES = (WW, WR, RW, SESSION)

#: One DSG edge as ``(src, dst, kind, item)``.
Edge = Tuple[int, int, str, Optional[str]]


@dataclass(frozen=True)
class DependencyEdge:
    """One edge of the DSG."""

    src: int
    dst: int
    kind: str
    item: Optional[str] = None

    def __str__(self) -> str:
        item = f"[{self.item}]" if self.item else ""
        return f"T{self.src} -{self.kind}{item}-> T{self.dst}"


def build_dsg(history: History, include_sessions: bool = True) -> nx.MultiDiGraph:
    """The DSG (plus session edges) of ``history``, built once per history.

    The graph and its edge index are cached on the history until one of its
    mutators runs, so every detector and every isolation level checked
    against the same history shares one build.  Callers must not mutate the
    returned graph.
    """
    return history._cached(("dsg", include_sessions),
                           lambda: _build_dsg(history, include_sessions))


def _build_dsg(history: History, include_sessions: bool) -> nx.MultiDiGraph:
    graph = nx.MultiDiGraph()
    committed = history.committed()
    graph.add_nodes_from(t.txn_id for t in committed)

    # Write-dependencies: consecutive writers in each item's version order.
    for key, order in history.version_order.items():
        for earlier, later in zip(order, order[1:]):
            _add_edge(graph, earlier, later, WW, key)

    # Read- and anti-dependencies.
    for transaction in committed:
        for read in transaction.reads:
            writer = read.writer_txn
            if writer is not INITIAL and writer in history.transactions:
                if history.transaction(writer).committed and writer != transaction.txn_id:
                    _add_edge(graph, writer, transaction.txn_id, WR, read.key)
            next_writer = history.next_writer(read.key, writer)
            if next_writer is not None and next_writer != transaction.txn_id:
                _add_edge(graph, transaction.txn_id, next_writer, RW, read.key)

    if include_sessions:
        for _session_id, transactions in history.sessions().items():
            for earlier, later in zip(transactions, transactions[1:]):
                _add_edge(graph, earlier.txn_id, later.txn_id, SESSION, None)

    graph.graph[_INDEX] = _EdgeIndex(graph)
    return graph


def _add_edge(graph: nx.MultiDiGraph, src: int, dst: int, kind: str,
              item: Optional[str]) -> None:
    if src == dst:
        return
    graph.add_edge(src, dst, kind=kind, item=item)


def edges_of(graph: nx.MultiDiGraph) -> List[DependencyEdge]:
    """All edges as :class:`DependencyEdge` records."""
    return [
        DependencyEdge(src=src, dst=dst, kind=data["kind"], item=data.get("item"))
        for src, dst, data in graph.edges(data=True)
    ]


#: Key of the :class:`_EdgeIndex` in the attribute dict of a graph built
#: by :func:`build_dsg`.
_INDEX = "repro.adya.edge_index"


class _EdgeIndex:
    """A DSG's edges grouped by ``(kind, item)``, each in graph edge order.

    A kind- or item-filtered edge list drawn from here is the same
    subsequence of ``graph.edges()`` that scanning every edge would give,
    so a graph rebuilt from it has the same node and adjacency order.
    """

    def __init__(self, graph: nx.MultiDiGraph):
        #: The indexed graph; views and copies share its attribute dict.
        self.graph = weakref.ref(graph)
        self.edges: List[Edge] = []
        self.groups: Dict[Tuple[str, Optional[str]], List[int]] = {}
        for src, dst, data in graph.edges(data=True):
            kind, item = data["kind"], data.get("item")
            self.groups.setdefault((kind, item), []).append(len(self.edges))
            self.edges.append((src, dst, kind, item))

    def select(self, allowed_kinds: Set[str], item: Optional[str]) -> List[Edge]:
        """Edges of ``allowed_kinds`` (on ``item`` only, if given), in order."""
        if item is None:
            wanted = [group for group in self.groups if group[0] in allowed_kinds]
        else:
            # Session edges carry no item and always qualify.
            wanted = [(kind, None if kind == SESSION else item) for kind in allowed_kinds]
        positions = sorted(position for group in wanted
                           for position in self.groups.get(group, ()))
        return [self.edges[position] for position in positions]


def cycles_with(
    graph: nx.MultiDiGraph,
    allowed_kinds: Set[str],
    required_kinds: Optional[Set[str]] = None,
    item: Optional[str] = None,
    max_witnesses: int = 25,
) -> List[List[DependencyEdge]]:
    """Find witness cycles using only ``allowed_kinds`` edges.

    ``required_kinds`` restricts results to cycles containing at least one
    edge of a required kind; ``item`` restricts dependency edges to a single
    data item (session edges carry no item and always qualify).  Returns each
    witness cycle as its list of edges.

    Detection is based on strongly connected components rather than
    exhaustive simple-cycle enumeration: an edge lies on some cycle exactly
    when both its endpoints are in the same SCC, so existence of a qualifying
    cycle is decided in polynomial time even for the dense dependency graphs
    produced by long recorded histories.  One representative cycle per SCC
    (per required kind) is reconstructed for reporting, up to
    ``max_witnesses``.

    On a graph from :func:`build_dsg` the selected edges come from the
    index built with it, so a call costs O(E' log E') for the E' edges it
    selects, and a per-item call touches only that item's edges: checking
    every item of a history costs O(E log E) in total, not O(items x E).
    Only a call that finds a cycle also pays O(V) to lay the selected edges
    over every node, which keeps witnesses in the order the SCC search
    over the full node set yields them.  Other graphs are indexed per call
    in O(E).  Callers must not mutate a graph they pass here.
    """
    index = graph.graph.get(_INDEX)
    if index is None or index.graph() is not graph:
        index = _EdgeIndex(graph)
    edges = index.select(allowed_kinds, item)
    if not _on_some_cycle(edges, required_kinds):
        return []

    # Every node, in graph order: networkx subgraph views iterate nodes in
    # another order once a component is under half the graph, so a graph of
    # only the touched nodes would pick different witness cycles.
    filtered = nx.MultiDiGraph()
    filtered.add_nodes_from(graph.nodes)
    for src, dst, kind, edge_item in edges:
        filtered.add_edge(src, dst, kind=kind, item=edge_item)

    results: List[List[DependencyEdge]] = []
    for component in nx.strongly_connected_components(filtered):
        if len(results) >= max_witnesses:
            break
        if len(component) < 2:
            continue
        subgraph = filtered.subgraph(component)
        seeds = _seed_edges(subgraph, required_kinds)
        if seeds is None:
            continue
        for seed in seeds[:1]:
            cycle = _cycle_through(subgraph, seed)
            if cycle is not None:
                results.append(cycle)
    return results


def _on_some_cycle(edges: List[Edge], required_kinds: Optional[Set[str]]) -> bool:
    """Whether some edge (of a required kind, if any are named) is on a cycle."""
    reduced = nx.DiGraph()
    reduced.add_edges_from((src, dst) for src, dst, _kind, _item in edges)
    component_of: Dict[int, int] = {}
    for number, component in enumerate(nx.strongly_connected_components(reduced)):
        if len(component) > 1:
            for node in component:
                component_of[node] = number
    return any(
        src in component_of and component_of[src] == component_of.get(dst)
        for src, dst, kind, _item in edges
        if not required_kinds or kind in required_kinds
    )


def _seed_edges(subgraph: nx.MultiDiGraph,
                required_kinds: Optional[Set[str]]) -> Optional[List[DependencyEdge]]:
    """Edges the witness cycle must pass through (None = no qualifying edge)."""
    edges = [
        DependencyEdge(src=src, dst=dst, kind=data["kind"], item=data.get("item"))
        for src, dst, data in subgraph.edges(data=True)
    ]
    if not required_kinds:
        return edges if edges else None
    qualifying = [edge for edge in edges if edge.kind in required_kinds]
    return qualifying or None


def _cycle_through(subgraph: nx.MultiDiGraph,
                   seed: DependencyEdge) -> Optional[List[DependencyEdge]]:
    """Build a concrete cycle containing ``seed`` inside its SCC."""
    if seed.src == seed.dst:
        return [seed]
    try:
        path_nodes = nx.shortest_path(subgraph, seed.dst, seed.src)
    except nx.NetworkXNoPath:  # pragma: no cover - SCC guarantees a path
        return None
    edges = [seed]
    for hop_src, hop_dst in zip(path_nodes, path_nodes[1:]):
        best = None
        for _, data in subgraph[hop_src][hop_dst].items():
            candidate = DependencyEdge(src=hop_src, dst=hop_dst, kind=data["kind"],
                                       item=data.get("item"))
            if best is None or (best.kind == SESSION and candidate.kind != SESSION):
                best = candidate
        edges.append(best)
    return edges
