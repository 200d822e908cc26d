"""Time-varying directed communication graphs as periodic slot schedules.

Edges are ordered pairs (j, i) meaning j sends to i.  Self-loops are
implicit everywhere: protocols always operate on N_i^in(t) united with
{i} (``GraphSchedule.closed_in``), and stored edge sets never contain (i, i).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .problem import require_integer

Edge = tuple[int, int]


class InvalidSize(Exception):
    pass


class NotUniformlyConnected(Exception):
    pass


def _is_strongly_connected(m: int, edges: frozenset[Edge]) -> bool:
    fwd: dict[int, list[int]] = {i: [] for i in range(1, m + 1)}
    bck: dict[int, list[int]] = {i: [] for i in range(1, m + 1)}
    for j, i in edges:
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

    Window starts are checked over one full period; the search is bounded
    by P*m, past which a uniformly connected schedule must have succeeded.
    """
    period = len(slots)
    for window in range(1, period * m + 1):
        ok = True
        for start in range(period):
            union: set[Edge] = set()
            for t in range(start, start + window):
                union |= slots[t % period]
            if not _is_strongly_connected(m, frozenset(union)):
                ok = False
                break
        if ok:
            return window
    raise NotUniformlyConnected(f"no window of length <= {period * m} is strongly connected")


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
        slots = []
        for k, edges in enumerate(self.slots):
            if isinstance(edges, str) or not isinstance(edges, Iterable):
                raise ValueError(f"slot {k} is not a collection of edges")
            clean = set()
            for edge in edges:
                try:  # a two-character string would unpack into two endpoints
                    j, i = () if isinstance(edge, str) else edge
                except (TypeError, ValueError):
                    raise ValueError(f"edge {edge!r} is not a pair (j, i)") from None
                j, i = require_integer(j, "edge endpoint"), require_integer(i, "edge endpoint")
                if not (1 <= j <= m and 1 <= i <= m):
                    raise ValueError(f"edge ({j},{i}) out of node range 1..{m}")
                if j == i:
                    raise ValueError("self-loops are implicit; do not store them")
                clean.add((j, i))
            slots.append(frozenset(clean))
        if not slots:
            raise ValueError("a schedule needs at least one slot")
        slots = tuple(slots)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "window", compute_connectivity_window(m, slots))

    @property
    def period(self) -> int:
        return len(self.slots)

    @cached_property
    def closed_in(self) -> np.ndarray:
        """Closed in-neighborhoods per slot phase, shape (period, m, m), bool, read-only.

        Entry [p, i-1, j-1] is True when j = i or j sends to i in phase p.
        Only the stopping counters and the Method II weights read it;
        built on first use, so merely validated schedules never pay.
        """
        table = np.zeros((self.period, self.m, self.m), dtype=bool)
        table[:, range(self.m), range(self.m)] = True
        for p, edges in enumerate(self.slots):
            for j, i in edges:
                table[p, i - 1, j - 1] = True
        table.flags.writeable = False
        return table


def make_schedule(m: int, slots) -> GraphSchedule:
    """A schedule from edge sets; :class:`GraphSchedule` checks each edge."""
    return GraphSchedule(m=m, slots=slots)


def directed_cycle(m: int) -> GraphSchedule:
    """Static cycle 1 -> 2 -> ... -> m -> 1."""
    if m < 2:
        raise InvalidSize("directed cycle needs m >= 2")
    edges = {(i, i % m + 1) for i in range(1, m + 1)}
    return make_schedule(m, [edges])


def complete(m: int) -> GraphSchedule:
    """Static complete digraph: all m(m-1) ordered pairs."""
    if m < 2:
        raise InvalidSize("complete graph needs m >= 2")
    edges = {(j, i) for j in range(1, m + 1) for i in range(1, m + 1) if j != i}
    return make_schedule(m, [edges])


def customized(m: int) -> GraphSchedule:
    """Complete graph on nodes 1..m-1 plus a bidirectional pendant link {m-1, m}."""
    if m < 3:
        raise InvalidSize("customized graph needs m >= 3")
    edges = {(j, i) for j in range(1, m) for i in range(1, m) if j != i}
    edges.add((m - 1, m))
    edges.add((m, m - 1))
    return make_schedule(m, [edges])


TOPOLOGIES = {
    "cycle": directed_cycle,
    "customized": customized,
    "complete": complete,
}


def schedule_from_config(config: dict) -> GraphSchedule:
    """Schedule from {"topology": ..., "m": int, "slots": [[[j,i],...],...]}."""
    topology = config["topology"]
    m = require_integer(config["m"], "m")
    if topology == "explicit":
        return make_schedule(m, config["slots"])
    try:
        return TOPOLOGIES[topology](m)
    except KeyError:
        raise ValueError(f"unknown topology {topology!r}") from None
