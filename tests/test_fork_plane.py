"""The fork pool's data plane, without the processes.

``fork`` (and its synonym ``shm``) moves data between the parent and its
workers in three pieces: the memory-update broadcast
(:meth:`ForkBackend._memory_updates`, applied worker-side by
:func:`apply_memory_updates`), the pickled :class:`BlockTask` shares, and
the pickled :class:`_BlockDelta` replies the parent folds back in block
order (:meth:`ForkBackend._merge`).

The broadcast's diff encoding is unit-tested directly.  The whole plane
is then run in-process by :class:`LoopbackBackend`: each "worker" is a
private copy of the memory image, as a forked child has, and every
broadcast, share and reply crosses a pickle round trip as it would cross
the pipe.  Supervision and real processes are left out on purpose -- they
are covered by ``test_supervise.py`` and the golden parity matrix -- so a
failure here points at the data plane alone.
"""

from __future__ import annotations

import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core import backend as backend_mod
from repro.core.backend import (
    ExecutionBackend,
    ForkBackend,
    _run_worker_task,
    _WorkerContext,
    apply_memory_updates,
    use_backend,
)
from repro.core.runner import parallelize
from repro.machine.memory import MemoryImage, SharedArray
from repro.obs.metrics import use_instrumentation
from repro.workloads.synthetic import (
    prefix_sum_loop,
    reduction_loop,
    strided_doall_loop,
)
from tests.engine_parity_cases import GOLDEN_PATH, run_case, summarize

P = 4
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _private_image(memory: MemoryImage) -> MemoryImage:
    return MemoryImage(
        SharedArray(name, memory[name].data.copy()) for name in memory.names()
    )


class _LoopbackSupervisor:
    """Runs each share on its own in-process worker context."""

    def __init__(self, backend: "LoopbackBackend") -> None:
        self.backend = backend

    def run_shares(self, shares: list[list]) -> list:
        backend = self.backend
        replies = []
        for wctx, share in zip(backend._workers, shares):
            payload = _roundtrip(backend._updates_bytes)
            apply_memory_updates(wctx.memory, payload)
            tasks = _roundtrip(share)
            replies.append(_roundtrip([_run_worker_task(wctx, t) for t in tasks]))
        return replies


class LoopbackBackend(ForkBackend):
    """The fork data plane with in-process workers (see the module
    docstring)."""

    name = "loopback"

    def _ensure_workers(self) -> None:
        if self._workers is not None:
            return
        base = self._make_wctx()
        self._workers = [
            _WorkerContext(
                loop=base.loop,
                costs=base.costs,
                memory=_private_image(base.memory),
                ckpt_names=base.ckpt_names,
                on_demand=base.on_demand,
                reduction_names=base.reduction_names,
            )
            for _ in range(self._pool_size())
        ]
        self._supervisor = _LoopbackSupervisor(self)

    def resource_info(self) -> dict:
        return ExecutionBackend.resource_info(self)

    def close(self) -> None:
        self._workers = None
        self._supervisor = None
        self._updates_bytes = b""


@pytest.fixture
def loopback(monkeypatch, always_dispatch):
    """Register :class:`LoopbackBackend` and pin every stage to it."""
    backend_mod._ensure_registered()
    monkeypatch.setitem(backend_mod.BACKENDS, LoopbackBackend.name, LoopbackBackend)
    return LoopbackBackend.name


# -- the memory-update broadcast --------------------------------------------------


def _broadcaster(**arrays: np.ndarray) -> ForkBackend:
    """A fork backend over ``arrays`` whose last broadcast was their
    current contents (what :meth:`ForkBackend._make_wctx` records)."""
    memory = MemoryImage(SharedArray(name, data) for name, data in arrays.items())
    backend = ForkBackend(SimpleNamespace(machine=SimpleNamespace(memory=memory)))
    backend._last_sync = {name: data.copy() for name, data in arrays.items()}
    return backend


def _memory(backend: ForkBackend) -> MemoryImage:
    return backend.eng.machine.memory


class TestMemoryUpdates:
    def test_unchanged_memory_broadcasts_nothing(self):
        backend = _broadcaster(A=np.arange(16.0), B=np.zeros(4))
        assert backend._memory_updates() == {}

    def test_few_changes_ship_a_sparse_pair_and_advance_the_baseline(self):
        backend = _broadcaster(A=np.zeros(64))
        _memory(backend)["A"].data[[3, 40]] = [1.5, -2.0]
        updates = backend._memory_updates()
        indices, values = updates["A"]
        assert indices.tolist() == [3, 40]
        assert values.tolist() == [1.5, -2.0]
        assert values.dtype == np.float64
        # The baseline moved with the broadcast: nothing is left to ship.
        assert backend._memory_updates() == {}

    def test_many_changes_ship_the_whole_array(self):
        backend = _broadcaster(A=np.zeros(8))
        data = _memory(backend)["A"].data
        data[:3] = 7.0  # 3/8 changed: past the sparse fraction
        updates = backend._memory_updates()
        assert isinstance(updates["A"], np.ndarray)
        assert updates["A"].tolist() == data.tolist()
        # A copy, not the live array: later parent writes must not leak in.
        assert updates["A"] is not data
        assert backend._memory_updates() == {}

    def test_an_array_with_no_baseline_ships_whole(self):
        backend = _broadcaster(A=np.arange(4.0))
        backend._last_sync.clear()
        updates = backend._memory_updates()
        assert updates["A"].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert backend._memory_updates() == {}

    def test_a_rebound_array_of_new_shape_ships_whole(self):
        backend = _broadcaster(A=np.zeros(4))
        _memory(backend)["A"].data = np.ones(6)
        updates = backend._memory_updates()
        assert updates["A"].tolist() == [1.0] * 6
        assert backend._memory_updates() == {}

    def test_nan_elements_reship_every_broadcast(self):
        # Elementwise != treats NaN as changed: wasteful, never wrong.
        backend = _broadcaster(A=np.zeros(16))
        _memory(backend)["A"].data[5] = np.nan
        for _ in range(2):
            indices, values = backend._memory_updates()["A"]
            assert indices.tolist() == [5]
            assert np.isnan(values).all()

    def test_applied_broadcasts_keep_a_worker_image_equal_to_the_parent(self):
        rng = np.random.default_rng(7)
        backend = _broadcaster(A=np.zeros(256), K=np.zeros(32, dtype=np.int64))
        parent = {name: _memory(backend)[name].data for name in ("A", "K")}
        worker = _private_image(_memory(backend))
        for step in range(12):
            for name, data in parent.items():
                # Alternate sparse and dense rounds so both encodings ship.
                n = 3 if step % 2 else data.size // 2
                at = rng.choice(data.size, size=n, replace=False)
                data[at] = rng.integers(-50, 50, size=n)
            payload = pickle.dumps(backend._memory_updates())
            apply_memory_updates(worker, payload)
            for name, data in parent.items():
                assert np.array_equal(worker[name].data, data)
                assert worker[name].data.dtype == data.dtype

    def test_an_empty_payload_changes_nothing(self):
        image = MemoryImage([SharedArray("A", np.arange(4.0))])
        apply_memory_updates(image, b"")
        assert image["A"].data.tolist() == [0.0, 1.0, 2.0, 3.0]


# -- the whole plane, in process --------------------------------------------------


# Between them these cases put every _BlockDelta field through the pickle
# boundary: private views and shadows with restores (chains), faults and
# fail-stop hoisting, exits, inductions and all-private range collection,
# untested writes under checkpoint faults, the self-check access log,
# DDG mark lists and the LRPD preload/copy-in paths.
LOOPBACK_CASES = [
    "adaptive-exit",
    "ddg8-chain",
    "induction-extend",
    "lrpd-copyin-pass",
    "lrpd-preinit",
    "nrd-chain",
    "nrd-untested-ckpt-fault",
    "nrd-untested-selfcheck",
    "rd-chain-faults11",
    "sw8-adaptive-rand",
]


class TestLoopbackPlane:
    @pytest.mark.parametrize("name", LOOPBACK_CASES)
    def test_golden_case_is_bit_identical(self, name, loopback):
        with use_backend(loopback):
            got = run_case(name)
        assert got == GOLDEN[name]

    def test_instrumented_case_is_bit_identical(self, loopback):
        # Worker metrics snapshots and span timings ride in the delta too.
        with use_backend(loopback), use_instrumentation(metrics=True, spans=True):
            got = run_case("nrd-untested-selfcheck")
        assert got == GOLDEN["nrd-untested-selfcheck"]

    def test_reduction_partials_cross_the_plane(self, loopback):
        serial = summarize(parallelize(reduction_loop(96), P, RuntimeConfig.nrd()))
        result = parallelize(
            reduction_loop(96), P, RuntimeConfig.nrd(backend=loopback)
        )
        assert result.supervision["supervise.dispatched_stages"] >= 1
        assert summarize(result) == serial

    @pytest.mark.parametrize(
        "make", [lambda: strided_doall_loop(256, stride=2), lambda: prefix_sum_loop(96)],
        ids=["strided-doall", "prefix-sum"],
    )
    def test_certified_plain_tasks_cross_the_plane(self, make, loopback):
        # Certified plain tasks write shared memory directly; their writes
        # ship home through the worker's capture checkpoint.
        serial = summarize(parallelize(make(), P))
        result = parallelize(
            make(), P, RuntimeConfig.adaptive(backend=loopback, backend_workers=P)
        )
        assert summarize(result) == serial
