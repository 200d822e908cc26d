"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces each public function at a module boundary,
under the name the calling module binds, with a wrapper that records one
span per call (name, start, end, parent) and the counts the per-layer
metrics need.  ``uninstall`` puts the originals back.  Nothing in
``drcopt`` is edited.  The caller opens the root spans: ``sim.run``
around each run call and ``cli.main`` around each CLI pass.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import drcopt.agents
import drcopt.cli
import drcopt.consensus
import drcopt.graph
import drcopt.sim
import drcopt.solver
from drcopt.llp import Verdict
from drcopt.solver import SolveStatus

_now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, _now(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = _now()
        self._stack.pop()

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, args, out)
            return out

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        w = self._wrap
        w(drcopt.sim, "consensus_solve", "consensus.solve")
        w(drcopt.consensus, "flood_constraints", "consensus.flood", _count_flood)
        w(drcopt.consensus, "solve", "solver.solve", _count_solve)
        w(drcopt.solver, "minimize", "solver.minimize", _count_minimize)
        w(drcopt.agents, "dlbd_oracle", "agents.oracle", _count_oracle)
        w(drcopt.agents, "dubd_oracle", "agents.oracle", _count_oracle)
        for module in (drcopt.agents, drcopt.sim, drcopt.cli):
            w(module, "solve_llp", "llp.solve", _count_llp)
        w(drcopt.sim, "run_stopping_round", "termination.stop", _count_stop)
        w(drcopt.graph, "make_schedule", "graph.make_schedule", _count_schedule)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of its child spans, summed per name."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = Counter()
        for s, t in zip(self.spans, own):
            out[s.name] += t
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return dict(out)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)


def _count_flood(counts, args, out):
    held, slots = out
    counts["flood_calls"] += 1
    counts["flood_slots"] += slots
    counts["union_cuts"] += len(held[0])


def _count_solve(counts, args, report):
    counts["solve_calls"] += 1
    counts["outer_iters"] += report.iterations
    counts["solve_cuts"] += len(args[0].cuts)
    counts["not_optimal"] += report.status is not SolveStatus.OPTIMAL


def _count_minimize(counts, args, res):
    counts["inner_calls"] += 1
    counts["inner_iters"] += res.nit
    counts["fun_grad_calls"] += res.nfev


def _count_oracle(counts, args, out):
    counts["oracle_calls"] += 1
    counts["violated"] += out[0] is Verdict.VIOLATED


def _count_llp(counts, args, out):
    counts["llp_calls"] += 1


def _count_stop(counts, args, out):
    counts["stop_rounds"] += 1
    counts["stop_slots"] += out[1]


def _count_schedule(counts, args, schedule):
    counts["schedules"] += 1
    counts["window"] = max(counts["window"], schedule.window)
