"""Time-varying directed communication graphs as periodic slot schedules.

Edges are ordered pairs (j, i) meaning j sends to i.  Self-loops are
implicit everywhere: protocols always operate on N_i^in(t) united with
{i} (``GraphSchedule.closed_in_lists``), and stored edge sets never contain (i, i).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problem import require_integer

Edge = tuple[int, int]


class InvalidSize(Exception):
    pass


class NotUniformlyConnected(Exception):
    pass


def _is_strongly_connected(m: int, edge_sets: Iterable[Iterable[Edge]]) -> bool:
    """Whether the union of ``edge_sets`` is strongly connected, each set read once."""
    fwd: list[list[int]] = [[] for _ in range(m + 1)]
    bck: list[list[int]] = [[] for _ in range(m + 1)]
    for j, i in itertools.chain.from_iterable(edge_sets):
        fwd[j].append(i)
        bck[i].append(j)

    def reach(adj):
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == m

    return reach(fwd) and reach(bck)


def compute_connectivity_window(m: int, slots: tuple[frozenset[Edge], ...]) -> int:
    """Smallest T such that every length-T slot window has a strongly connected union.

    Window starts are checked over one full period.  A window of P slots
    (the period) holds every phase, and so does every longer one: they
    all have the same union, so the search stops at T = P and checks
    one start there.
    """
    period = len(slots)
    doubled = slots + slots  # a window from any start is one slice
    for window in range(1, period + 1):
        starts = range(period if window < period else 1)
        if all(_is_strongly_connected(m, doubled[s : s + window]) for s in starts):
            return window
    raise NotUniformlyConnected(f"no window of length <= {period} is strongly connected")


def _checked_edges(m: int, k: int, edges) -> Iterator[Edge]:
    """Slot ``k``'s edges as int pairs, each checked as :class:`GraphSchedule` states."""
    if isinstance(edges, str) or not isinstance(edges, Iterable):
        raise ValueError(f"slot {k} is not a collection of edges")
    for edge in edges:
        try:  # a two-character string would unpack into two endpoints
            j, i = () if isinstance(edge, str) else edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair (j, i)") from None
        if type(j) is not int or type(i) is not int:  # plain ints skip two calls
            j, i = require_integer(j, "edge endpoint"), require_integer(i, "edge endpoint")
        if not (1 <= j <= m and 1 <= i <= m):
            raise ValueError(f"edge ({j},{i}) out of node range 1..{m}")
        if j == i:
            raise ValueError("self-loops are implicit; do not store them")
        yield j, i


@dataclass(frozen=True)
class GraphSchedule:
    """Periodic sequence of directed edge sets over m nodes (1-based ids).

    Construction (also by ``dataclasses.replace``) checks every edge,
    stores each slot as a frozenset of int pairs, and computes ``window``,
    the connectivity window T of the slots.  It raises ``ValueError``
    for a non-integer ``m``, :class:`InvalidSize` for ``m < 1``,
    ``ValueError`` for slots that are not iterable, an empty slot list, a
    slot that is not a collection of edges (a string or a non-iterable),
    an edge that is not a pair, a non-integer endpoint, an endpoint
    outside 1..m or a self-loop, and
    :class:`NotUniformlyConnected` for a schedule that is not uniformly
    connected.  Flooding rests on T alone (see :mod:`drcopt.consensus`).
    """

    m: int
    slots: tuple[frozenset[Edge], ...]  # any iterable of edge iterables on input
    window: int = field(init=False)  # T of uniform strong connectivity

    def __post_init__(self):
        m = require_integer(self.m, "node count")
        if m < 1:
            raise InvalidSize("node count must be >= 1")
        if not isinstance(self.slots, Iterable):
            raise ValueError(f"slots must be a collection of slots, got {self.slots!r}")
        slots = tuple(frozenset(_checked_edges(m, k, edges)) for k, edges in enumerate(self.slots))
        if not slots:
            raise ValueError("a schedule needs at least one slot")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "window", compute_connectivity_window(m, slots))

    @property
    def period(self) -> int:
        return len(self.slots)

    @cached_property
    def closed_in_lists(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Closed in-neighbor lists per slot phase: ``(sources, destinations, starts)``, int arrays, read-only.

        In phase p, agent i's closed in-neighborhood is
        ``sources[starts[i-1]:starts[i]]`` (``starts[m]`` is the length of
        ``sources``) in 0-based ids: i itself first, then its in-neighbors
        ascending.  ``destinations`` holds each entry's agent, i - 1
        there, so a ``np.bincount(destinations, weights=terms[sources])``
        adds up every list, each one left to right.  O(m + edges) per
        phase, the form the stopping rounds and the Method II weights
        read; built on first use.
        """
        lists = []
        base = self.m + 1  # entry key: destination * base + rank, own id at rank 0, source j at j + 1
        own = np.arange(self.m, dtype=np.int64) * base
        for edges in self.slots:
            pairs = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
            keys = np.concatenate([own, pairs[1::2] * base + pairs[0::2] - base])
            destinations, rank = np.divmod(np.sort(keys), base)
            sources = np.where(rank == 0, destinations, rank - 1)
            starts = np.concatenate([[0], np.cumsum(np.bincount(destinations, minlength=self.m))])
            phase = (sources, destinations, starts)
            for array in phase:
                array.flags.writeable = False
            lists.append(phase)
        return tuple(lists)


def make_schedule(m: int, slots) -> GraphSchedule:
    """A schedule from edge sets; :class:`GraphSchedule` checks each edge."""
    return GraphSchedule(m=m, slots=slots)


def directed_cycle(m: int) -> GraphSchedule:
    """Static cycle 1 -> 2 -> ... -> m -> 1."""
    if m < 2:
        raise InvalidSize("directed cycle needs m >= 2")
    return make_schedule(m, [((i, i % m + 1) for i in range(1, m + 1))])


def complete(m: int) -> GraphSchedule:
    """Static complete digraph: all m(m-1) ordered pairs."""
    if m < 2:
        raise InvalidSize("complete graph needs m >= 2")
    return make_schedule(m, [((j, i) for j in range(1, m + 1) for i in range(1, m + 1) if j != i)])


def customized(m: int) -> GraphSchedule:
    """Complete graph on nodes 1..m-1 plus a bidirectional pendant link {m-1, m}."""
    if m < 3:
        raise InvalidSize("customized graph needs m >= 3")
    clique = ((j, i) for j in range(1, m) for i in range(1, m) if j != i)
    return make_schedule(m, [itertools.chain(clique, [(m - 1, m), (m, m - 1)])])


TOPOLOGIES = {
    "cycle": directed_cycle,
    "customized": customized,
    "complete": complete,
}
