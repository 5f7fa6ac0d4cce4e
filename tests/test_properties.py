"""Property-based tests (hypothesis): the runtime's invariants under
arbitrary access patterns.

The generator draws a full per-iteration operation table -- any mix of
reads and writes to any elements -- so the speculative runtime is exercised
against flow, anti, output, and read-modify-write patterns it has never
seen in the unit tests.  The oracle is always the same: a sequential
execution of the identical loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.sequential import sequential_reference
from repro.config import RuntimeConfig
from repro.core.ddg import extract_ddg
from repro.core.lrpd import run_doall_lrpd
from repro.core.runner import parallelize
from repro.core.wavefront import execute_wavefront, wavefront_schedule
from repro.loopir.induction import InductionSpec
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.util.blocks import partition_weighted, validate_blocks


# ---------------------------------------------------------------------------
# Random-loop generator
# ---------------------------------------------------------------------------

ops_tables = st.integers(min_value=1, max_value=48).flatmap(
    lambda n: st.integers(min_value=1, max_value=24).flatmap(
        lambda m: st.tuples(
            st.just(n),
            st.just(m),
            st.lists(
                st.lists(
                    st.tuples(
                        st.sampled_from(["r", "w"]),
                        st.integers(min_value=0, max_value=m - 1),
                    ),
                    max_size=4,
                ),
                min_size=n,
                max_size=n,
            ),
        )
    )
)


def loop_from_table(n: int, m: int, table) -> SpeculativeLoop:
    def body(ctx, i):
        acc = float(i)
        for kind, idx in table[i]:
            if kind == "r":
                acc += ctx.load("A", idx)
            else:
                ctx.store("A", idx, acc + idx)

    return SpeculativeLoop(
        "prop", n, body, arrays=[ArraySpec("A", np.arange(float(m)))]
    )


CONFIGS = [
    RuntimeConfig.nrd(),
    RuntimeConfig.rd(),
    RuntimeConfig.adaptive(),
    RuntimeConfig.sw(window_size=6),
    RuntimeConfig.sw(window_size=12, adaptive_window=True),
]


class TestSpeculationSoundness:
    """For every strategy and any access pattern: speculative execution's
    final shared state equals sequential execution's."""

    @settings(max_examples=60, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=1, max_value=9),
           cfg=st.sampled_from(CONFIGS))
    def test_matches_sequential(self, data, p, cfg):
        n, m, table = data
        loop = loop_from_table(n, m, table)
        result = parallelize(loop, p, cfg)
        assert result.memory.equals(sequential_reference(loop))

    @settings(max_examples=40, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=2, max_value=8))
    def test_doall_lrpd_sound_pass_or_fail(self, data, p):
        n, m, table = data
        loop = loop_from_table(n, m, table)
        result = run_doall_lrpd(loop, p)
        assert result.memory.equals(sequential_reference(loop))
        assert result.n_restarts in (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=2, max_value=8))
    def test_nrd_stage_bound(self, data, p):
        """NRD completes in at most p stages (each stage commits at least
        the lowest uncommitted block)."""
        n, m, table = data
        loop = loop_from_table(n, m, table)
        result = parallelize(loop, p, RuntimeConfig.nrd())
        assert result.n_stages <= p

    @settings(max_examples=40, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=2, max_value=8))
    def test_progress_and_accounting(self, data, p):
        n, m, table = data
        loop = loop_from_table(n, m, table)
        result = parallelize(loop, p, RuntimeConfig.rd())
        remaining = [n] + [s.remaining_after for s in result.stages]
        assert all(a > b for a, b in zip(remaining, remaining[1:]))
        assert 0.0 < result.parallelism_ratio <= 1.0
        assert result.speedup > 0.0
        assert result.wasted_work >= -1e-9
        assert sum(s.committed_iterations for s in result.stages) == n


class TestDDGProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=2, max_value=6),
           window=st.integers(min_value=2, max_value=24))
    def test_flow_edges_equal_ground_truth(self, data, p, window):
        """DDG extraction finds exactly the adjacent flow pairs of the
        sequential trace, for any window size."""
        n, m, table = data
        loop = loop_from_table(n, m, table)
        result = extract_ddg(loop, p, RuntimeConfig.sw(window_size=window))

        # Ground truth from the sequential semantics of the table.
        last_write: dict[int, int] = {}
        truth: set[tuple[int, int]] = set()
        for i in range(n):
            seen_write: set[int] = set()
            for kind, idx in table[i]:
                if kind == "r":
                    w = last_write.get(idx)
                    if w is not None and w < i and idx not in seen_write:
                        truth.add((w, i))
                else:
                    seen_write.add(idx)
            for kind, idx in table[i]:
                if kind == "w":
                    last_write[idx] = i
        assert result.flow_pairs() == truth

    @settings(max_examples=30, deadline=None)
    @given(data=ops_tables, p=st.integers(min_value=2, max_value=6))
    def test_wavefront_schedule_valid_and_sound(self, data, p):
        n, m, table = data
        loop = loop_from_table(n, m, table)
        ddg = extract_ddg(loop, p, RuntimeConfig.sw(window_size=8))
        graph = ddg.graph()
        sched = wavefront_schedule(graph, n)
        sched.validate(graph)
        assert 1 <= sched.critical_path <= max(1, n)
        result = execute_wavefront(loop, sched, p)
        assert result.memory.equals(sequential_reference(loop))


class TestInductionProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        base=st.integers(min_value=1, max_value=8),
        keep=st.lists(st.booleans(), min_size=40, max_size=40),
        look=st.lists(st.booleans(), min_size=40, max_size=40),
        p=st.integers(min_value=1, max_value=6),
    )
    def test_random_extend_pattern_sound(self, n, base, keep, look, p):
        def body(ctx, i):
            slot = ctx.peek("K")
            value = float(i + 1)
            if look[i] and slot > base:
                value += ctx.load("T", slot - 1)
            ctx.store("T", slot, value)
            if keep[i]:
                ctx.bump("K")

        loop = SpeculativeLoop(
            "prop-extend", n, body,
            arrays=[ArraySpec("T", np.zeros(base + n + 2))],
            inductions=[InductionSpec("K", initial=base)],
        )
        result = parallelize(loop, p)
        assert result.memory.equals(sequential_reference(loop))
        expected_final = base + sum(1 for i in range(n) if keep[i])
        assert result.induction_finals == {"K": expected_final}


class TestExitProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        data=ops_tables,
        p=st.integers(min_value=1, max_value=8),
        exit_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_premature_exit_matches_sequential(self, data, p, exit_seed):
        """Any access pattern plus an exit at an arbitrary iteration: the
        blocked runner commits exactly the sequential prefix."""
        n, m, table = data
        exit_at = exit_seed % n

        def body(ctx, i):
            acc = float(i)
            for kind, idx in table[i]:
                if kind == "r":
                    acc += ctx.load("A", idx)
                else:
                    ctx.store("A", idx, acc + idx)
            if i == exit_at:
                ctx.exit_loop()

        def make():
            return SpeculativeLoop(
                "prop-exit", n, body, arrays=[ArraySpec("A", np.arange(float(m)))]
            )

        result = parallelize(make(), p, RuntimeConfig.nrd())
        assert result.exit_iteration == exit_at
        assert result.memory.equals(sequential_reference(make()))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.integers(min_value=1, max_value=6),
        exit_at=st.integers(min_value=0, max_value=39),
    )
    def test_exit_with_untested_state(self, n, p, exit_at):
        """Untested writes past the exit must be rolled back.

        Untested arrays carry the statically-analyzable contract, so each
        iteration writes its own element (cross-processor sharing of an
        untested element is a declaration error the runtime rejects).
        """
        exit_at = exit_at % n

        def body(ctx, i):
            ctx.store("B", i, float(i) + 1.0)
            if i == exit_at:
                ctx.exit_loop()

        def make():
            return SpeculativeLoop(
                "prop-exit-untested", n, body,
                arrays=[ArraySpec("B", np.zeros(n), tested=False)],
            )

        result = parallelize(make(), p, RuntimeConfig.nrd())
        assert result.memory.equals(sequential_reference(make()))


class TestMixedDeclarationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        data=ops_tables,
        p=st.integers(min_value=1, max_value=8),
        cfg=st.sampled_from([RuntimeConfig.nrd(), RuntimeConfig.rd(),
                             RuntimeConfig.sw(window_size=8)]),
    )
    def test_tested_plus_untested_plus_reduction(self, data, p, cfg):
        """Arbitrary tested-array traffic alongside a contract-respecting
        untested array and an integer reduction: every strategy, one
        oracle."""
        n, m, table = data

        from repro.loopir.reductions import ReductionOp

        def body(ctx, i):
            acc = float(i)
            for kind, idx in table[i]:
                if kind == "r":
                    acc += ctx.load("A", idx)
                else:
                    ctx.store("A", idx, acc + idx)
            ctx.store("LOG", i, acc)          # untested, own element
            ctx.update("COUNT", i % 2, 1.0)   # integer reduction

        def make():
            return SpeculativeLoop(
                "prop-mixed", n, body,
                arrays=[
                    ArraySpec("A", np.arange(float(m))),
                    ArraySpec("LOG", np.zeros(n), tested=False),
                    ArraySpec("COUNT", np.zeros(2)),
                ],
                reductions={"COUNT": ReductionOp.SUM},
            )

        result = parallelize(make(), p, cfg)
        assert result.memory.equals(sequential_reference(make()))


class TestReductionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        bins=st.integers(min_value=1, max_value=8),
        p=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_integer_reductions_exact(self, n, bins, p, seed):
        """Integer-valued reductions commute exactly: any distribution of
        updates over processors reproduces the sequential result bit for
        bit."""
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, bins, size=n)
        increments = rng.integers(1, 5, size=n).astype(np.float64)

        def body(ctx, i):
            ctx.update("H", int(targets[i]), float(increments[i]))

        from repro.loopir.reductions import ReductionOp

        def make():
            return SpeculativeLoop(
                "prop-red", n, body,
                arrays=[ArraySpec("H", np.zeros(bins))],
                reductions={"H": ReductionOp.SUM},
            )

        result = parallelize(make(), p, RuntimeConfig.rd())
        assert result.n_stages == 1
        assert result.memory.equals(sequential_reference(make()))


#: One block's accesses to one array: scalar reads/writes/updates and bulk
#: ``load_many``/``store_many`` batches with duplicate indices.
_block_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["r", "w", "u"]), st.integers(0, 11)),
        st.tuples(
            st.sampled_from(["load_many", "store_many"]),
            st.lists(st.integers(0, 11), min_size=1, max_size=4),
        ),
    ),
    max_size=8,
)

#: A stage: per group, whether its log was shipped from a worker and
#: absorbed, and one or two blocks, each with ops on arrays A and B.
_stages = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(st.fixed_dictionaries({"A": _block_ops, "B": _block_ops}),
                 min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=5,
)


def _log_group(blocks, shipped):
    """Shadows recording ``blocks`` as the executor does: one signed log
    and one update column per block; a shipped group's marks travel
    through a pickled export into a fresh shadow."""
    import pickle

    from repro.shadow import ShadowArray

    shadows = {name: ShadowArray(12) for name in "AB"}
    for block in blocks:
        for name, ops in block.items():
            log, updates = [], []
            for op, arg in ops:
                if op == "r":
                    log.append(arg)
                elif op == "w":
                    log.append(~arg)
                elif op == "u":
                    updates.append(arg)
                elif op == "load_many":
                    log.extend(arg)
                else:
                    log.extend(~i for i in arg)
            if log:
                shadows[name].record(np.array(log, dtype=np.int64))
            if updates:
                shadows[name].record_updates(np.array(updates, dtype=np.int64))
    if shipped:
        received = {name: ShadowArray(12) for name in "AB"}
        for name, shadow in shadows.items():
            received[name].absorb_marks(pickle.loads(pickle.dumps(shadow.export_marks())))
        shadows = received
    return shadows


def _set_group(blocks):
    from tests.shadow_model import SetShadow

    shadows = {name: SetShadow(12) for name in "AB"}
    for block in blocks:
        for name, ops in block.items():
            shadow = shadows[name]
            for op, arg in ops:
                if op == "r":
                    shadow.mark_read(arg)
                elif op == "w":
                    shadow.mark_write(arg)
                elif op == "u":
                    shadow.mark_update(arg)
                else:
                    mark = shadow.mark_read if op == "load_many" else shadow.mark_write
                    for index in arg:
                        mark(index)
    return shadows


class TestAnalysisEquivalence:
    @pytest.mark.parametrize("kernels", ["scalar", "vector"])
    @settings(max_examples=120, deadline=None)
    @given(stage=_stages)
    @example(stage=[  # a mixed element: updated by one group, read by the next
        (False, [{"A": [("u", 3)], "B": []}]),
        (True, [{"A": [("r", 3)], "B": [("w", 3)]}, {"A": [], "B": [("r", 3)]}]),
    ])
    @example(stage=[  # bulk duplicates; a later read covered in a second block
        (False, [{"A": [("store_many", [1, 1, 2])], "B": []}]),
        (False, [{"A": [("load_many", [1, 1])], "B": []},
                 {"A": [("w", 2), ("r", 2)], "B": []}]),
    ])
    def test_grouped_log_analysis_equals_per_access_reference(self, kernels, stage):
        """One grouped-log kernel pass per array finds the arcs, the
        earliest sink, the per-group distinct refs and the mixed count the
        per-access set model and the generic arc rule find, and leaves each
        shadow its distinct count and set queries."""
        from repro.core.analysis import analyze_stage
        from repro.kernels import use_kernels
        from tests.shadow_model import planes, reference_stage

        log_groups = [(g, _log_group(blocks, shipped)) for g, (shipped, blocks) in enumerate(stage)]
        set_groups = [(g, _set_group(blocks)) for g, (_, blocks) in enumerate(stage)]
        arcs, sink, distinct, mixed = reference_stage(set_groups)
        with use_kernels(kernels):
            analysis = analyze_stage(log_groups)
            assert len(analysis.arcs) == len(arcs)
            got = [(a.src_pos, a.dst_pos, a.array, a.index) for a in analysis.arcs]
            assert set(got) == arcs and len(got) == len(set(got))
            assert analysis.earliest_sink_pos == sink
            assert analysis.distinct_refs == distinct
            assert analysis.mixed_reduction_elements == mixed
            for (_, logged), (_, marked) in zip(log_groups, set_groups):
                for name, shadow in logged.items():
                    assert shadow.distinct_refs() == marked[name].distinct_refs()
                    assert planes(shadow) == planes(marked[name])


class TestDataStructureProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        p=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_weighted_partition_tiles_and_balances(self, n, p, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n) + 0.01
        blocks = partition_weighted(0, n, list(range(p)), weights)
        validate_blocks(blocks, 0, n)
        sums = [weights[b.start : b.stop].sum() for b in blocks]
        ideal = weights.sum() / p
        # No block exceeds the ideal share by more than one iteration's
        # weight (the granularity bound of any contiguous partition).
        assert max(sums) <= ideal + weights.max() + 1e-9
