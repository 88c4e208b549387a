"""networkx oracles for the structural queries of :class:`ETLGraph`.

:class:`ETLGraph` answers topological order, longest path,
reachability, distances and connectivity with its own walks over plain
adjacency dicts.  The helpers here rebuild the flow as a
``networkx.DiGraph`` from the public API only and ask networkx instead,
so a disagreement points at the graph code, not at the oracle.
"""

from __future__ import annotations

import networkx as nx

from repro.etl.graph import ETLGraph


def reference_digraph(flow: ETLGraph) -> nx.DiGraph:
    """The flow as a DiGraph: nodes in operation order, then edges by successor order.

    networkx keeps each node's successors in edge insertion order, so
    the DiGraph lists every operation's successors as the flow does.
    Its predecessors come out grouped by source operation instead of in
    the flow's edge insertion order.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(flow.operation_ids())
    for source in flow.operation_ids():
        graph.add_edges_from((source, target) for target in flow.successor_ids(source))
    return graph


def reference_topological_ids(flow: ETLGraph) -> tuple[str, ...]:
    """``nx.topological_sort`` of the flow."""
    return tuple(nx.topological_sort(reference_digraph(flow)))


def reference_longest_path(flow: ETLGraph) -> list[str]:
    """``nx.dag_longest_path`` of the flow, ties broken as networkx breaks them.

    networkx prefers the first deepest predecessor in ``G.pred`` order,
    so this DiGraph adds the edges by predecessor order (which keeps the
    flow's predecessor order) and takes the topological order from
    :func:`reference_digraph` (which keeps its successor order).
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(flow.operation_ids())
    for target in flow.operation_ids():
        graph.add_edges_from((source, target) for source in flow.predecessor_ids(target))
    return nx.dag_longest_path(graph, topo_order=reference_topological_ids(flow))


def reference_distance_from_sources(graph: nx.DiGraph, op_id: str) -> int:
    """Fewest hops from any node without predecessors to ``op_id``."""
    lengths = nx.shortest_path_length(graph, target=op_id)
    return min(hops for node, hops in lengths.items() if graph.in_degree(node) == 0)


def reference_distance_to_sinks(graph: nx.DiGraph, op_id: str) -> int:
    """Fewest hops from ``op_id`` to any node without successors."""
    lengths = nx.shortest_path_length(graph, source=op_id)
    return min(hops for node, hops in lengths.items() if graph.out_degree(node) == 0)
