import dataclasses

import networkx as nx
import numpy as np
import pytest

from drcopt.graph import (
    GraphSchedule,
    InvalidSize,
    NotUniformlyConnected,
    complete,
    compute_connectivity_window,
    customized,
    directed_cycle,
    make_schedule,
    schedule_from_config,
)

from helpers import edge_scan_in_neighbors, random_connected_schedule


def out_neighbors(schedule, node, t):
    return tuple(sorted(i for j, i in schedule.slots[t % schedule.period] if j == node))


def closed_neighborhood(schedule, node, t):
    """Sorted closed in-neighborhood of node at slot t, read off ``closed_in``."""
    return tuple(int(j) + 1 for j in np.flatnonzero(schedule.closed_in[t % schedule.period, node - 1]))


def nx_strongly_connected(m, edges):
    g = nx.DiGraph()
    g.add_nodes_from(range(1, m + 1))
    g.add_edges_from(edges)
    return nx.is_strongly_connected(g)


class TestGenerators:
    def test_cycle_3(self):
        s = directed_cycle(3)
        assert s.slots[0] == frozenset({(1, 2), (2, 3), (3, 1)})
        assert s.window == 1

    def test_cycle_6_out_degrees(self):
        s = directed_cycle(6)
        assert len(s.slots[0]) == 6
        assert all(len(out_neighbors(s, i, 0)) == 1 for i in range(1, 7))

    def test_cycle_too_small(self):
        with pytest.raises(InvalidSize):
            directed_cycle(1)

    def test_complete_edge_counts(self):
        assert len(complete(2).slots[0]) == 2
        assert len(complete(3).slots[0]) == 6
        assert len(complete(6).slots[0]) == 30

    def test_customized_3(self):
        s = customized(3)
        assert s.slots[0] == frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})

    def test_customized_6_pendant(self):
        s = customized(6)
        assert edge_scan_in_neighbors(s, 6, 0) == (5,)
        assert closed_neighborhood(s, 6, 0) == (5, 6)
        assert out_neighbors(s, 6, 0) == (5,)
        for i in range(1, 6):
            assert set(out_neighbors(s, i, 0)) >= {j for j in range(1, 6) if j != i}

    def test_customized_4_edge_count(self):
        assert len(customized(4).slots[0]) == 3 * 2 + 2

    def test_customized_too_small(self):
        with pytest.raises(InvalidSize):
            customized(2)

    def test_all_generators_static_window_one(self):
        for s in (directed_cycle(6), customized(6), complete(6), directed_cycle(2)):
            assert s.window == 1


class TestConnectivityWindow:
    def test_alternating_two_slot(self):
        s = make_schedule(2, [{(1, 2)}, {(2, 1)}])
        assert s.window == 2

    def test_isolated_node_rejected(self):
        with pytest.raises(NotUniformlyConnected):
            make_schedule(3, [{(1, 2), (2, 1)}])

    def test_disconnected_schedule_cannot_be_built(self):
        # 1 -> 2 -> ... -> 6 without the closing edge: agent 1 never hears from the others.
        path = frozenset((i, i + 1) for i in range(1, 6))
        with pytest.raises(NotUniformlyConnected):
            GraphSchedule(m=6, slots=(path,))

    def test_window_is_not_an_argument(self):
        with pytest.raises(TypeError):
            GraphSchedule(m=2, slots=(frozenset({(1, 2), (2, 1)}),), window=1)

    def test_replace_recomputes_the_window(self):
        s = directed_cycle(3)
        alternating = dataclasses.replace(s, slots=(frozenset({(1, 2), (2, 3)}), frozenset({(3, 1)})))
        assert (s.window, alternating.window) == (1, 2)
        with pytest.raises(NotUniformlyConnected):
            dataclasses.replace(s, slots=(frozenset({(1, 2), (2, 3)}),))

    def test_random_schedules_window_verified_by_networkx(self, rng):
        for _ in range(40):
            s = random_connected_schedule(rng)
            assert s.window <= s.period * s.m
            for start in range(s.period):
                union = set()
                for t in range(start, start + s.window):
                    union |= s.slots[t % s.period]
                assert nx_strongly_connected(s.m, union)

    def test_window_is_minimal(self, rng):
        for _ in range(20):
            s = random_connected_schedule(rng)
            if s.window == 1:
                continue
            shorter_ok = all(
                nx_strongly_connected(
                    s.m,
                    set().union(*(s.slots[t % s.period] for t in range(start, start + s.window - 1))),
                )
                for start in range(s.period)
            )
            assert not shorter_ok


class TestNeighbors:
    def test_cycle_neighbors(self):
        s = directed_cycle(3)
        assert closed_neighborhood(s, 2, 0) == (1, 2)
        assert out_neighbors(s, 2, 0) == (3,)

    def test_complete_neighbors(self):
        s = complete(3)
        assert closed_neighborhood(s, 1, 0) == (1, 2, 3)
        assert out_neighbors(s, 1, 0) == (2, 3)

    def test_slot_index_wraps(self):
        s = make_schedule(2, [{(1, 2)}, {(2, 1)}])
        assert closed_neighborhood(s, 2, 0) == (1, 2)
        assert closed_neighborhood(s, 2, 1) == (2,)
        assert closed_neighborhood(s, 2, 2) == (1, 2)

    def test_single_agent(self):
        assert make_schedule(1, [set()]).closed_in.tolist() == [[[1.0]]]

    def test_read_only_bool_mask(self):
        s = customized(5)
        table = s.closed_in
        assert table.shape == (1, 5, 5)
        assert table.dtype == np.bool_
        assert set(np.unique(table)) == {False, True}
        with pytest.raises(ValueError):
            table[0, 0, 1] = True

    def test_built_on_first_use_only(self):
        s = directed_cycle(4)
        assert "closed_in" not in vars(s)
        assert s.closed_in is s.closed_in

    def test_table_matches_edge_scan(self, rng):
        for _ in range(50):
            s = random_connected_schedule(rng)
            assert s.closed_in.shape == (s.period, s.m, s.m)
            for t in range(2 * s.period):
                for node in range(1, s.m + 1):
                    expected = tuple(sorted((node,) + edge_scan_in_neighbors(s, node, t)))
                    assert closed_neighborhood(s, node, t) == expected


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="elf-loop"):
            make_schedule(2, [{(1, 1), (1, 2), (2, 1)}])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="range"):
            make_schedule(2, [{(1, 3), (2, 1)}])

    # A GraphSchedule built directly runs the same checks as make_schedule.
    def test_direct_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1,5\) out of node range 1..3"):
            GraphSchedule(m=3, slots=(frozenset({(1, 5)}),))

    def test_direct_float_endpoints_rejected(self):
        with pytest.raises(ValueError, match="edge endpoint must be an integer"):
            GraphSchedule(m=2, slots=(frozenset({(1.0, 2.0), (2, 1)}),))

    def test_direct_self_loop_rejected(self):
        with pytest.raises(ValueError, match="elf-loop"):
            GraphSchedule(m=2, slots=(frozenset({(1, 1), (1, 2), (2, 1)}),))

    def test_empty_slot_list_rejected(self):
        with pytest.raises(ValueError, match="a schedule needs at least one slot"):
            GraphSchedule(m=2, slots=())
        with pytest.raises(ValueError, match="a schedule needs at least one slot"):
            schedule_from_config({"topology": "explicit", "m": 2, "slots": []})

    @pytest.mark.parametrize("edge", [[1, 2, 3], 5, "ab", [1]], ids=["triple", "int", "string", "single"])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        with pytest.raises(ValueError, match=r"edge .* is not a pair \(j, i\)"):
            schedule_from_config({"topology": "explicit", "m": 2, "slots": [[[1, 2], edge, [2, 1]]]})

    @pytest.mark.parametrize("slot", [5, "ab", None], ids=["int", "string", "null"])
    def test_slot_that_is_not_a_collection_of_edges_rejected(self, slot):
        with pytest.raises(ValueError, match="slot 1 is not a collection of edges"):
            GraphSchedule(m=2, slots=[[(1, 2), (2, 1)], slot])

    def test_slots_that_are_not_iterable_rejected(self):
        with pytest.raises(ValueError, match="slots must be a collection of slots, got 5"):
            GraphSchedule(m=2, slots=5)

    def test_direct_zero_nodes_rejected(self):
        with pytest.raises(InvalidSize, match="node count must be >= 1"):
            GraphSchedule(m=0, slots=(frozenset(),))

    @pytest.mark.parametrize("m", [True, 2.0])
    def test_direct_non_integer_node_count_rejected(self, m):
        with pytest.raises(ValueError, match="node count must be an integer"):
            GraphSchedule(m=m, slots=(frozenset(),))

    def test_slots_stored_as_frozensets_of_int_pairs(self):
        s = GraphSchedule(m=2, slots=[[(np.int64(1), 2)], {(2, 1)}])
        assert s.slots == (frozenset({(1, 2)}), frozenset({(2, 1)}))
        assert all(type(v) is int for edges in s.slots for edge in edges for v in edge)
        assert s == make_schedule(2, [{(1, 2)}, {(2, 1)}])

    def test_config_explicit(self):
        s = schedule_from_config({"topology": "explicit", "m": 2, "slots": [[[1, 2]], [[2, 1]]]})
        assert s.window == 2

    def test_config_named(self):
        assert schedule_from_config({"topology": "complete", "m": 4}).m == 4

    def test_config_unknown(self):
        with pytest.raises(ValueError, match="topology"):
            schedule_from_config({"topology": "torus", "m": 4})
