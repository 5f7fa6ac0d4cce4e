"""Unit tests for the analysis phase: earliest sink, doall validity."""


from repro.config import RuntimeConfig, TestCondition
from repro.core.analysis import DependenceArc, analyze_stage, doall_valid
from repro.shadow import ShadowArray


def shadow(reads=(), writes=(), updates=(), n=32):
    sh = ShadowArray(n)
    # Order matters for exposure: mark reads first (read-first pattern)
    for i in reads:
        sh.mark_read(i)
    for i in writes:
        sh.mark_write(i)
    for i in updates:
        sh.mark_update(i)
    return sh


def groups_of(*shadows):
    return [(proc, {"A": sh}) for proc, sh in enumerate(shadows)]


class TestAnalyzeStage:
    def test_no_conflicts_fully_parallel(self):
        analysis = analyze_stage(groups_of(shadow(writes=[0]), shadow(writes=[1])))
        assert analysis.fully_parallel
        assert analysis.earliest_sink_pos is None
        assert list(analysis.arcs) == []

    def test_flow_arc_detected(self):
        # proc 0 writes element 5; proc 1 exposed-reads it.
        analysis = analyze_stage(
            groups_of(shadow(writes=[5]), shadow(reads=[5]))
        )
        assert analysis.earliest_sink_pos == 1
        assert list(analysis.arcs) == [DependenceArc(0, 1, "A", 5)]

    def test_anti_direction_is_not_a_flow_arc(self):
        # proc 0 reads element 5; proc 1 writes it: anti dependence,
        # absorbed by copy-in privatization.
        analysis = analyze_stage(
            groups_of(shadow(reads=[5]), shadow(writes=[5]))
        )
        assert analysis.fully_parallel

    def test_output_dependence_ok(self):
        analysis = analyze_stage(
            groups_of(shadow(writes=[5]), shadow(writes=[5]))
        )
        assert analysis.fully_parallel

    def test_covered_read_is_safe(self):
        # proc 1 writes 5 then reads it: not an exposed read.
        sh1 = ShadowArray(32)
        sh1.mark_write(5)
        sh1.mark_read(5)
        analysis = analyze_stage(groups_of(shadow(writes=[5]), sh1))
        assert analysis.fully_parallel

    def test_earliest_sink_is_minimum(self):
        analysis = analyze_stage(
            groups_of(
                shadow(writes=[1, 2]),
                shadow(reads=[9]),      # clean
                shadow(reads=[2]),      # sink at pos 2
                shadow(reads=[1]),      # sink at pos 3
            )
        )
        assert analysis.earliest_sink_pos == 2
        assert len(analysis.arcs) == 2

    def test_first_group_cannot_be_sink(self):
        analysis = analyze_stage(
            groups_of(shadow(reads=[5]), shadow(writes=[5]), shadow(reads=[5]))
        )
        assert analysis.earliest_sink_pos == 2

    def test_arcs_attribute_earliest_writer(self):
        analysis = analyze_stage(
            groups_of(shadow(writes=[5]), shadow(writes=[5]), shadow(reads=[5]))
        )
        [arc] = analysis.arcs
        assert arc.src_pos == 0

    def test_distinct_refs_collected(self):
        analysis = analyze_stage(
            groups_of(shadow(reads=[1], writes=[2]), shadow(writes=[3]))
        )
        assert analysis.distinct_refs == [2, 1]

    def test_multiple_arrays_independent(self):
        g = [
            (0, {"A": shadow(writes=[5]), "B": shadow()}),
            (1, {"A": shadow(), "B": shadow(reads=[5])}),
        ]
        assert analyze_stage(g).fully_parallel

    def test_arc_requires_same_array(self):
        g = [
            (0, {"A": shadow(writes=[5]), "B": shadow()}),
            (1, {"A": shadow(reads=[5]), "B": shadow()}),
        ]
        assert analyze_stage(g).earliest_sink_pos == 1

    def test_empty_groups(self):
        assert analyze_stage([]).fully_parallel


class TestReductionMixing:
    def test_pure_reduction_is_parallel(self):
        analysis = analyze_stage(
            groups_of(shadow(updates=[3]), shadow(updates=[3]))
        )
        assert analysis.fully_parallel
        assert analysis.mixed_reduction_elements == 0

    def test_mixed_update_and_read_is_flow(self):
        # proc 0 reduction-updates element 3; proc 1 plainly reads it:
        # the element is not a valid reduction, updates become write+read.
        analysis = analyze_stage(
            groups_of(shadow(updates=[3]), shadow(reads=[3]))
        )
        assert analysis.earliest_sink_pos == 1
        assert analysis.mixed_reduction_elements == 1

    def test_mixed_update_after_write_is_flow(self):
        analysis = analyze_stage(
            groups_of(shadow(writes=[3]), shadow(updates=[3]))
        )
        assert analysis.earliest_sink_pos == 1

    def test_mixing_on_unrelated_element_harmless(self):
        analysis = analyze_stage(
            groups_of(shadow(updates=[3]), shadow(updates=[3], writes=[4]))
        )
        assert analysis.fully_parallel


class TestDoallValid:
    def test_parallel_passes_both(self):
        g = groups_of(shadow(writes=[0]), shadow(writes=[1]))
        assert doall_valid(g, TestCondition.COPY_IN)
        assert doall_valid(g, TestCondition.PRIVATIZATION)

    def test_flow_fails_both(self):
        g = groups_of(shadow(writes=[5]), shadow(reads=[5]))
        assert not doall_valid(g, TestCondition.COPY_IN)
        assert not doall_valid(g, TestCondition.PRIVATIZATION)

    def test_anti_passes_copyin_fails_privatization(self):
        """The Section 2 distinction: (Read*|(Write|Read)*) vs (Write|Read)*."""
        g = groups_of(shadow(reads=[5]), shadow(writes=[5]))
        assert doall_valid(g, TestCondition.COPY_IN)
        assert not doall_valid(g, TestCondition.PRIVATIZATION)

    def test_single_proc_rmw_passes_both(self):
        # One processor reads then writes its own element: sequential
        # within the processor, fine under either condition.
        g = groups_of(shadow(reads=[5], writes=[5]), shadow(writes=[6]))
        assert doall_valid(g, TestCondition.COPY_IN)
        assert doall_valid(g, TestCondition.PRIVATIZATION)

    def test_read_only_passes_both(self):
        g = groups_of(shadow(reads=[5]), shadow(reads=[5]))
        assert doall_valid(g, TestCondition.COPY_IN)
        assert doall_valid(g, TestCondition.PRIVATIZATION)

    def test_write_first_sharing_passes_both(self):
        # Both procs write element 5 before reading it: privatizable.
        sh0, sh1 = ShadowArray(32), ShadowArray(32)
        for sh in (sh0, sh1):
            sh.mark_write(5)
            sh.mark_read(5)
        g = [(0, {"A": sh0}), (1, {"A": sh1})]
        assert doall_valid(g, TestCondition.COPY_IN)
        assert doall_valid(g, TestCondition.PRIVATIZATION)

    def test_mixed_reduction_fails_both(self):
        g = groups_of(shadow(updates=[3]), shadow(reads=[3]))
        assert not doall_valid(g, TestCondition.COPY_IN)
        assert not doall_valid(g, TestCondition.PRIVATIZATION)


class TestFlowArcColumns:
    def test_count_and_sink_build_no_arc_objects(self, monkeypatch, kernel_mode):
        import repro.core.analysis as analysis_mod

        def forbidden(*args):
            raise AssertionError("an arc object was built")

        monkeypatch.setattr(analysis_mod, "DependenceArc", forbidden)
        analysis = analyze_stage(
            groups_of(shadow(writes=[1, 2]), shadow(reads=[2, 1]), shadow(reads=[1]))
        )
        assert len(analysis.arcs) == 3
        assert analysis.earliest_sink_pos == 1

    def test_iteration_orders_by_sink_array_element(self, kernel_mode):
        g = [
            (0, {"B": shadow(writes=[4]), "A": shadow(writes=[9, 3])}),
            (1, {"B": shadow(reads=[4]), "A": shadow(reads=[9, 3])}),
            (2, {"B": shadow(), "A": shadow(reads=[3])}),
        ]
        assert list(analyze_stage(g).arcs) == [
            DependenceArc(0, 1, "B", 4),
            DependenceArc(0, 1, "A", 3),
            DependenceArc(0, 1, "A", 9),
            DependenceArc(0, 2, "A", 3),
        ]

    def test_engine_builds_no_arc_objects(self, monkeypatch):
        import repro.core.analysis as analysis_mod
        from repro.core.runner import parallelize
        from repro.workloads.synthetic import random_dependence_loop

        def forbidden(*args):
            raise AssertionError("an arc object was built")

        monkeypatch.setattr(analysis_mod, "DependenceArc", forbidden)
        loop = random_dependence_loop(200, density=0.1, max_distance=10, seed=3)
        result = parallelize(loop, 4, RuntimeConfig.adaptive(certify="off"))
        assert sum(stage.n_arcs for stage in result.stages) > 0
