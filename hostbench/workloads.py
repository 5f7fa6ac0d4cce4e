"""The benchmark's four workloads: seeded inputs, timed calls, oracles.

Every workload is a fixed list of *units* derived from the seed.  A unit
is one loop instantiation (``parallelize``) or one TRACK time step
(``TrackSimulation.step``); the benchmark runs each unit on every backend.
The program under test only ever sees the generated decks and configs.

What the seed draws differs by workload.  SPICE and FMA3D draw whole
decks from it: their restart counts barely move between draws.  NLFILT
and TRACK keep the dependence structure of their published decks and
draw only the data values from the seed (``NUSED``, the initial tracks),
which never reach a guard or an address: redrawing their structure moved
the restart count, and with it every end-to-end metric, by 20-28% between
seeds, which no bound could absorb.

The oracle is independent of the engine under test: a standalone loop is
checked against :func:`repro.baselines.sequential.run_sequential`, and the
TRACK program against :class:`SequentialTrack`, a plain sequential twin
that applies each step's loops through ``run_sequential(loop, memory=...)``.
Oracle results are kept as memory digests so large inputs (SPICE's 1 Mi
element workspace) are not held twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.baselines.sequential import run_sequential
from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.machine.memory import MemoryImage, SharedArray
from repro.util.rng import make_rng
from repro.workloads import (
    FMA3D_DECKS,
    NLFILT_DECKS,
    SPICE_DECKS,
    TrackSimConfig,
    TrackSimulation,
    make_dcdcmp15_loop,
    make_nlfilt_loop,
    make_quad_loop,
)

#: Simulated processors: the paper's machine size, and never fewer
#: workers than cores (``backend_workers`` resolves to min(8, nproc)).
N_PROCS = 8
BACKENDS = ("serial", "threads", "fork", "shm")


def digest(memory: MemoryImage) -> str:
    """Bit-exact fingerprint of every shared array (name, dtype, bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(memory.names()):
        data = memory[name].data
        h.update(name.encode())
        h.update(str(data.dtype).encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def figures(runs) -> tuple:
    """The deterministic virtual-time figures of one call, which must be
    identical on every backend (certificate verdict included)."""
    return tuple(
        (
            r.n_stages,
            r.n_restarts,
            r.total_time,
            r.sequential_work,
            r.certificate.verdict if r.certificate is not None else None,
        )
        for r in runs
    )


@dataclass
class Plan:
    """A workload's generated inputs for one seed, with the oracle."""

    n: list[int]
    """Iterations per unit, counted once however often they re-execute."""
    expected: list[str]
    """Oracle memory digest after each unit."""
    inputs: object
    """Workload-specific inputs: loops, or the TRACK seed."""


# -- independent loop instantiations ----------------------------------------


class LoopRunner:
    """Runs a plan's loops on one backend; each call is independent."""

    def __init__(self, plan: Plan, config: RuntimeConfig, sinks) -> None:
        self.loops = plan.inputs
        self.config = config
        self.sinks = sinks

    def call(self, k: int):
        result = parallelize(
            self.loops[k], N_PROCS, self.config, sinks=self.sinks
        )
        return [result], result.memory


class LoopWorkload:
    """A workload whose unit ``k`` is one seeded loop instantiation."""

    def __init__(self, name, units_per_second, make_loop, fastpath) -> None:
        self.name = name
        self.units_per_second = units_per_second
        self.make_loop = make_loop
        self.fastpath = fastpath

    def build(self, seed: int, n_units: int) -> list:
        return [self.make_loop(seed, k) for k in range(n_units)]

    def oracle(self, inputs: list, n_units: int) -> Plan:
        n, expected = [], []
        for loop in inputs:
            reference = run_sequential(loop)
            n.append(loop.n_iterations)
            expected.append(digest(reference.memory))
        return Plan(n=n, expected=expected, inputs=inputs)

    def runner(self, plan: Plan, config: RuntimeConfig, sinks=()) -> LoopRunner:
        return LoopRunner(plan, config, sinks)

    def warm_up(self, plan: Plan, config: RuntimeConfig) -> None:
        parallelize(plan.inputs[0], N_PROCS, config)


def _nlfilt(seed: int, k: int):
    # The published deck's guards, distances and work; seeded NUSED values.
    loop = make_nlfilt_loop(NLFILT_DECKS["16-400"], instance=k)
    values = make_rng(seed, "hostbench-nlfilt", k).random(loop.n_iterations)
    arrays = [
        dataclasses.replace(spec, initial=values) if spec.name == "NUSED" else spec
        for spec in loop.arrays
    ]
    return dataclasses.replace(loop, arrays=arrays)


def _spice(seed: int, k: int):
    # One perfect-up circuit per unit: the deck seed is the only input.
    deck = dataclasses.replace(SPICE_DECKS["perfect-up"], seed=seed * 4096 + k)
    return make_dcdcmp15_loop(deck)


def _fma3d(seed: int, k: int):
    # Alternate the 8,192-element ``ref`` mesh (above the exact-probe
    # limit: one clean speculative stage) with the 2,048-element ``train``
    # mesh (certified DOALL: the zero-speculation fast path).
    deck = dataclasses.replace(FMA3D_DECKS["ref" if k % 2 == 0 else "train"], seed=seed)
    return make_quad_loop(deck, instance=k)


# -- the TRACK program ------------------------------------------------------


def track_simulation(seed: int) -> TrackSimulation:
    """The default TRACK problem with the initial tracks drawn from ``seed``."""
    sim = TrackSimulation(TrackSimConfig())
    n = sim.n_tracks
    sim.memory["TRACK"].data[:n] = make_rng(seed, "hostbench-track").random(n)
    return sim


class SequentialTrack:
    """Plain sequential twin of :class:`TrackSimulation`.

    Draws the same per-step inputs as ``TrackSimulation.step`` and builds
    the same three loops, but applies each one with ``run_sequential``
    against the persistent memory: the engine under test never runs.
    """

    def __init__(self, seed: int) -> None:
        self.sim = track_simulation(seed)

    def step(self) -> int:
        """Advance one time step; return the iterations it ran."""
        s = self.sim
        rng = make_rng(s.sim.seed, "track-sim-step", s.step_index)
        room = s.sim.max_tracks - s.n_tracks - 1
        n_obs = min(s.sim.detections_per_step, max(0, room))
        obs = rng.random(n_obs)
        ref_idx = rng.integers(0, s.n_tracks, size=max(1, n_obs))[:n_obs]
        iterations = 0
        if n_obs:
            if "OBS" in s.memory:
                s.memory["OBS"].data = obs.copy()
            else:
                s.memory.add(SharedArray("OBS", obs))
            extend = s._extend_loop(obs, ref_idx)
            result = run_sequential(extend, memory=s.memory)
            s.n_tracks = result.induction_finals["LSTTRK"]
            iterations += extend.n_iterations
        draws = rng.random(s.n_tracks)
        distances = rng.integers(1, s.sim.smooth_distance + 1, size=s.n_tracks)
        sinks = np.where(
            draws < s.sim.smooth_prob, np.arange(s.n_tracks) + distances, -1
        )
        for loop in (s._nlfilt_loop(sinks), s._fptrak_loop()):
            run_sequential(loop, memory=s.memory)
            iterations += loop.n_iterations
        s.step_index += 1
        return iterations


class TrackRunner:
    """One persistent simulation per backend; call ``k`` is step ``k``.

    The engine's event sinks reach ``parallelize`` inside ``step`` only
    through the traced run's patch (:mod:`layers`); ``step`` takes none.
    """

    def __init__(self, plan: Plan, config: RuntimeConfig) -> None:
        self.sim = track_simulation(plan.inputs)
        self.config = config

    def call(self, k: int):
        if self.sim.step_index != k:
            raise RuntimeError(
                f"simulation is at step {self.sim.step_index}, expected {k}"
            )
        return self.sim.step(N_PROCS, self.config), self.sim.memory


class TrackWorkload:
    """The TRACK program: unit ``k`` is time step ``k`` of one simulation."""

    name = "track-program"
    fastpath = True

    def __init__(self, units_per_second: float) -> None:
        self.units_per_second = units_per_second

    def build(self, seed: int, n_units: int) -> int:
        return seed  # the simulation draws everything else itself

    def oracle(self, inputs: int, n_units: int) -> Plan:
        plan = Plan(n=[], expected=[], inputs=inputs)
        twin = SequentialTrack(inputs)
        for _ in range(n_units):
            plan.n.append(twin.step())
            plan.expected.append(digest(twin.sim.memory))
        return plan

    def runner(self, plan: Plan, config: RuntimeConfig, sinks=()) -> TrackRunner:
        return TrackRunner(plan, config)

    def warm_up(self, plan: Plan, config: RuntimeConfig) -> None:
        track_simulation(plan.inputs).step(N_PROCS, config)


WORKLOADS = {
    w.name: w
    for w in (
        LoopWorkload("nlfilt-16-400", 1.0, _nlfilt, fastpath=False),
        LoopWorkload("spice-dcdcmp15", 1.67, _spice, fastpath=False),
        LoopWorkload("fma3d-quad", 2.27, _fma3d, fastpath=True),
        TrackWorkload(2.8),
    )
}
