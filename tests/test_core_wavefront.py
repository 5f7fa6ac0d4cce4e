"""Tests for wavefront scheduling and execution."""

import networkx as nx
import pytest

from repro.config import RuntimeConfig
from repro.core.ddg import extract_ddg
from repro.core.wavefront import execute_wavefront, wavefront_schedule
from repro.errors import ScheduleError
from repro.workloads.synthetic import chain_loop, fully_parallel_loop
from repro.workloads.spice import SPICE_DECKS, make_dcdcmp15_loop
from tests.conftest import assert_matches_sequential

import dataclasses


def graph_of(n, edges):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


class TestScheduleConstruction:
    def test_no_edges_single_level(self):
        sched = wavefront_schedule(graph_of(8, []), 8)
        assert sched.critical_path == 1
        assert sched.levels[0] == tuple(range(8))

    def test_chain_is_fully_sequential(self):
        edges = [(i, i + 1) for i in range(7)]
        sched = wavefront_schedule(graph_of(8, edges), 8)
        assert sched.critical_path == 8
        assert all(len(level) == 1 for level in sched.levels)

    def test_longest_path_layering(self):
        # 0 -> 1 -> 3, 0 -> 3: node 3 must sit at depth 2, not 1.
        sched = wavefront_schedule(graph_of(4, [(0, 1), (1, 3), (0, 3)]), 4)
        levels = {i: k for k, level in enumerate(sched.levels) for i in level}
        assert levels[3] == 2
        assert levels[2] == 0  # untouched node at depth 0

    def test_average_parallelism(self):
        sched = wavefront_schedule(graph_of(8, [(0, 4)]), 8)
        assert sched.critical_path == 2
        assert sched.average_parallelism == 4.0

    def test_backward_edge_rejected(self):
        g = nx.DiGraph()
        g.add_edge(3, 1)
        with pytest.raises(ScheduleError):
            wavefront_schedule(g, 4)

    def test_out_of_range_edge_rejected(self):
        g = nx.DiGraph()
        g.add_edge(0, 10)
        with pytest.raises(ScheduleError):
            wavefront_schedule(g, 4)

    def test_validate_accepts_own_schedule(self):
        g = graph_of(16, [(0, 5), (5, 9), (2, 9)])
        sched = wavefront_schedule(g, 16)
        sched.validate(g)  # must not raise

    def test_validate_rejects_coverage_gap(self):
        from repro.core.wavefront import WavefrontSchedule

        bad = WavefrontSchedule(n_iterations=4, levels=((0, 1),))
        with pytest.raises(ScheduleError):
            bad.validate(graph_of(4, []))

    def test_validate_rejects_same_level_edge(self):
        from repro.core.wavefront import WavefrontSchedule

        bad = WavefrontSchedule(n_iterations=2, levels=((0, 1),))
        with pytest.raises(ScheduleError):
            bad.validate(graph_of(2, [(0, 1)]))


class TestExecution:
    def test_executes_correctly(self):
        loop = chain_loop(64, targets=[10, 20, 30])
        ddg = extract_ddg(loop, 4, RuntimeConfig.sw(window_size=16))
        sched = wavefront_schedule(ddg.graph(), 64)
        res = execute_wavefront(loop, sched, 4)
        assert_matches_sequential(res, loop)

    def test_stage_count_equals_critical_path(self):
        loop = chain_loop(32, targets=[16])
        ddg = extract_ddg(loop, 4, RuntimeConfig.sw(window_size=8))
        sched = wavefront_schedule(ddg.graph(), 32)
        res = execute_wavefront(loop, sched, 4)
        assert res.n_stages == sched.critical_path

    def test_no_test_overhead(self):
        from repro.machine.timeline import Category

        loop = fully_parallel_loop(32)
        sched = wavefront_schedule(graph_of(32, []), 32)
        res = execute_wavefront(loop, sched, 4)
        assert res.timeline.total_category(Category.MARK) == 0.0
        assert res.timeline.total_category(Category.COPY_IN) == 0.0

    def test_mismatched_schedule_rejected(self):
        loop = fully_parallel_loop(32)
        sched = wavefront_schedule(graph_of(16, []), 16)
        with pytest.raises(ScheduleError):
            execute_wavefront(loop, sched, 4)

    def test_speedup_bounded_by_parallelism(self):
        loop = chain_loop(64, targets=list(range(1, 64)))  # full chain
        ddg = extract_ddg(loop, 4, RuntimeConfig.sw(window_size=8))
        sched = wavefront_schedule(ddg.graph(), 64)
        res = execute_wavefront(loop, sched, 4)
        assert sched.critical_path == 64
        assert res.speedup <= 1.0


class TestSpiceLU:
    def test_adder_deck_shape(self):
        """The headline DCDCMP-15 claim: thousands of iterations, short
        critical path, wavefront speedup well beyond the plain R-LRPD."""
        deck = dataclasses.replace(SPICE_DECKS["adder.128"], lu_rows=430)
        loop = make_dcdcmp15_loop(deck)
        ddg = extract_ddg(loop, 8, RuntimeConfig.sw(window_size=64))
        sched = wavefront_schedule(ddg.graph(), loop.n_iterations)
        assert sched.critical_path <= loop.n_iterations // 20
        res = execute_wavefront(loop, sched, 8)
        assert_matches_sequential(res, loop)
        assert res.speedup > 2.0

    def test_schedule_validates_against_graph(self):
        deck = dataclasses.replace(SPICE_DECKS["adder.128"], lu_rows=215)
        loop = make_dcdcmp15_loop(deck)
        ddg = extract_ddg(loop, 4, RuntimeConfig.sw(window_size=32))
        graph = ddg.graph()
        sched = wavefront_schedule(graph, loop.n_iterations)
        sched.validate(graph)
