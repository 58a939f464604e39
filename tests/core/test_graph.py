"""Tests for repro.core.graph against networkx as the reference."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.graph import DiGraph, descendants

from ..conftest import to_networkx

#: Random digraphs as (node count, edge list): self-loops, repeated
#: edges, isolated nodes and the empty graph all occur.
GRAPHS = st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n) if n else st.just([])))


def _build(n, edges):
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_edges_drop_duplicates_like_networkx(case):
    n, edges = case
    graph = _build(n, edges)
    reference = nx.DiGraph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    assert list(graph) == list(reference)
    assert list(graph.edges()) == list(reference.edges())
    assert graph.number_of_edges() == reference.number_of_edges()


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_components_match_networkx_in_order(case):
    graph = _build(*case)
    condensed = graph.condensation()
    # Same partition, emitted in the same (reverse topological) order.
    assert [set(m) for m in condensed.members] \
        == list(nx.strongly_connected_components(to_networkx(graph)))
    for comp, members in enumerate(condensed.members):
        assert all(condensed.component[node] == comp for node in members)
    assert sorted(condensed.component) == sorted(graph)


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_condensation_edges_match_networkx(case):
    graph = _build(*case)
    condensed = graph.condensation()
    reference = nx.condensation(to_networkx(graph))
    assert list(reference.nodes) == list(range(len(condensed.members)))
    assert [list(reference.succ[c]) for c in reference] == condensed.succ
    assert condensed.in_degree() \
        == [reference.in_degree(c) for c in reference]
    for comp, dsts in enumerate(condensed.succ):
        assert all(dst < comp for dst in dsts)
        assert sorted(condensed.pred()[comp]) \
            == sorted(reference.predecessors(comp))


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_descendants_match_networkx(case):
    graph = _build(*case)
    reference = to_networkx(graph)
    for node in graph:
        assert descendants(graph.succ, [node]) - {node} \
            == nx.descendants(reference, node)
    condensed = graph.condensation()
    dag = nx.condensation(reference)
    for comp in range(len(condensed.members)):
        assert descendants(condensed.succ, [comp]) \
            == nx.descendants(dag, comp)


@settings(max_examples=300, deadline=None)
@given(GRAPHS)
def test_longest_path_matches_networkx(case):
    graph = _build(*case)
    condensed = graph.condensation()
    dag = nx.condensation(to_networkx(graph))
    path = condensed.longest_path()
    assert len(path) == (nx.dag_longest_path_length(dag) + 1 if dag else 0)
    assert all(b in condensed.succ[a] for a, b in zip(path, path[1:]))


def test_deep_chain_does_not_recurse():
    graph = DiGraph()
    for node in range(20_000):
        graph.add_edge(node, node + 1)
    graph.add_edge(20_000, 0)  # one cycle through the whole chain
    graph.add_edge(20_000, "tail")
    condensed = graph.condensation()
    assert len(condensed.members) == 2
    assert len(condensed.members[condensed.component[0]]) == 20_001
    assert len(condensed.longest_path()) == 2
    chain = DiGraph()
    for node in range(20_000):
        chain.add_edge(node, node + 1)
    assert len(chain.condensation().longest_path()) == 20_001


def test_equal_insertion_order_gives_equal_component_order():
    edges = [("c", "a"), ("a", "b"), ("b", "a"), ("d", "c"), ("e", "e")]
    first, second = DiGraph(), DiGraph()
    for graph in (first, second):
        for src, dst in edges:
            graph.add_edge(src, dst)
    assert first.condensation().members == second.condensation().members
    assert first.condensation().succ == second.condensation().succ


def test_node_data_is_kept_apart_from_adjacency():
    graph = DiGraph()
    graph.add_node("a", {"driver": None})
    graph.add_edge("a", "b")
    graph.add_edge("a", "b")
    assert graph.nodes == {"a": {"driver": None}}
    assert graph.succ == {"a": {"b": None}, "b": {}}
    assert graph.has_edge("a", "b") and not graph.has_edge("b", "a")
    assert len(graph) == 2 and list(graph) == ["a", "b"]
