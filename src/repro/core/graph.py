"""A small directed graph: just what construction-time analysis needs.

The static scheduler (:mod:`repro.core.optimize`), the IR compiler
(:mod:`repro.core.ir`) and the analysis passes (:mod:`repro.analysis`)
build a dependency graph, condense its strongly connected components and
walk the condensation.  :class:`DiGraph` stores successors as
insertion-ordered dicts (a repeated edge is dropped) and keeps node data
in a separate dict; :meth:`DiGraph.condensation` runs an iterative
Tarjan, so its component order is fixed by node insertion order and a
deep chain cannot hit the recursion limit.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Set

Node = Hashable


class DiGraph:
    """Successor dicts plus a node-data dict, both in insertion order."""

    __slots__ = ("succ", "nodes")

    def __init__(self) -> None:
        #: node -> {successor: None}; dict keys dedupe and keep order.
        self.succ: Dict[Node, Dict[Node, None]] = {}
        #: node -> its data (only for nodes added with data).
        self.nodes: Dict[Node, Any] = {}

    def add_node(self, node: Node, data: Any = None) -> None:
        self.succ.setdefault(node, {})
        if data is not None:
            self.nodes[node] = data

    def add_edge(self, src: Node, dst: Node) -> None:
        self.succ.setdefault(src, {})[dst] = None
        self.succ.setdefault(dst, {})

    def has_edge(self, src: Node, dst: Node) -> bool:
        return dst in self.succ.get(src, ())

    def edges(self) -> Iterator[tuple]:
        return ((src, dst) for src, out in self.succ.items() for dst in out)

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ.values()))

    def __iter__(self) -> Iterator[Node]:
        return iter(self.succ)

    def __len__(self) -> int:
        return len(self.succ)

    def condensation(self) -> "Condensation":
        """The SCC condensation (iterative Tarjan).

        Components are numbered in the order Tarjan completes them, a
        reverse topological order: every successor of component ``c``
        has a lower number than ``c``.
        """
        succ = self.succ
        index: Dict[Node, int] = {}
        low: Dict[Node, int] = {}
        component: Dict[Node, int] = {}
        members: List[List[Node]] = []
        stack: List[Node] = []
        for root in succ:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                node, children = work[-1]
                for child in children:
                    if child not in index:
                        index[child] = low[child] = len(index)
                        stack.append(child)
                        work.append((child, iter(succ[child])))
                        break
                    if child not in component and index[child] < low[node]:
                        low[node] = index[child]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] == index[node]:
                        number = len(members)
                        cut = len(stack) - 1
                        while stack[cut] is not node:
                            cut -= 1
                        comp = stack[cut:]
                        del stack[cut:]
                        for member in comp:
                            component[member] = number
                        members.append(comp)
        out: List[Dict[int, None]] = [{} for _ in members]
        for src, dsts in succ.items():
            mine = component[src]
            for dst in dsts:
                theirs = component[dst]
                if theirs != mine:
                    out[mine][theirs] = None
        return Condensation(component, members, [list(d) for d in out])


class Condensation:
    """A condensed graph as parallel lists.

    ``component[node]`` is the number of a node's component,
    ``members[c]`` the nodes of component ``c`` and ``succ[c]`` the
    components it has edges into, both in first-seen order.
    """

    __slots__ = ("component", "members", "succ")

    def __init__(self, component: Dict[Node, int], members: List[List[Node]],
                 succ: List[List[int]]):
        self.component = component
        self.members = members
        self.succ = succ

    def cyclic(self, graph: DiGraph, comp: int) -> bool:
        """Whether component ``comp`` holds a cycle of ``graph``."""
        nodes = self.members[comp]
        return len(nodes) > 1 or graph.has_edge(nodes[0], nodes[0])

    def in_degree(self) -> List[int]:
        degree = [0] * len(self.members)
        for dsts in self.succ:
            for dst in dsts:
                degree[dst] += 1
        return degree

    def pred(self) -> List[List[int]]:
        """Predecessor lists: the reversed condensation."""
        out: List[List[int]] = [[] for _ in self.members]
        for src, dsts in enumerate(self.succ):
            for dst in dsts:
                out[dst].append(src)
        return out

    def longest_path(self) -> List[int]:
        """Components along one longest path (``[]`` when empty)."""
        if not self.members:
            return []
        # Successors are numbered lower, so one ascending pass suffices.
        best: List[int] = []
        after: List[int] = []
        for comp, dsts in enumerate(self.succ):
            nxt = max(dsts, key=best.__getitem__, default=-1)
            best.append(best[nxt] + 1 if dsts else 0)
            after.append(nxt)
        comp = max(range(len(best)), key=best.__getitem__)
        path = [comp]
        while after[comp] >= 0:
            comp = after[comp]
            path.append(comp)
        return path


def descendants(adjacency: Mapping[Node, Iterable[Node]],
                sources: Iterable[Node]) -> Set[Node]:
    """Every node reachable from ``sources`` in one or more steps."""
    seen: Set[Node] = set()
    todo = list(sources)
    while todo:
        for nxt in adjacency[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen
