"""Cross-driver parity: the engine must reproduce the seed drivers bit-exactly.

``tests/data/engine_golden.json`` was captured from the pre-engine
per-driver implementations on fixed seeds.  Every case here re-runs the
same (workload, config, fault plan) through the :class:`StageEngine`
strategies and demands identical observables: final-memory hash, stage
counts, committed-iteration sequences and virtual-time totals down to the
float's repr.

Each case runs under every execution backend (:mod:`repro.core.backend`):
the golden values were captured from in-process serial execution, so a
passing ``fork`` run proves the worker-pool dispatch, delta shipping and
in-order merge are bit-identical to serial -- results, events and virtual
time alike.  The ``fork`` and ``shm`` legs pin every stage to the pool
(the ``always_dispatch`` fixture), so the worker data plane stays
exercised whatever the dispatch rule would choose; the mixed leg
alternates them between the pool and the parent stage by stage.  ``shm``
and ``threads`` are synonyms for the fork pool and the serial loop, so
their legs hold the synonyms to the same golden values; the ``threads``
legs also check that the synonym never consults the pool's dispatch rule
and never starts a pool, on any driver.
"""

import json

import pytest

from repro.core.backend import ForkBackend, backend_names, use_backend
from repro.obs.metrics import use_instrumentation
from tests.engine_parity_cases import CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())

def test_golden_matrix_is_complete():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_seed(name, backend, always_dispatch):
    with use_backend(backend):
        got = run_case(name)
    want = GOLDEN[name]
    for key in want:
        assert got[key] == want[key], (
            f"{name} [{backend}]: {key} diverged from seed behavior"
        )
    assert got == want


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_fully_instrumented(name, backend, always_dispatch):
    """Metrics + span collection must not perturb any observable: the
    whole golden matrix re-runs with full instrumentation on (scoped via
    the process-wide default, so no driver needs to know) and must still
    match the seed bit-for-bit under every backend."""
    with use_backend(backend), use_instrumentation(metrics=True, spans=True):
        got = run_case(name)
    want = GOLDEN[name]
    for key in want:
        assert got[key] == want[key], (
            f"{name} [{backend}, instrumented]: {key} diverged from seed behavior"
        )
    assert got == want


def _alternating(monkeypatch, first: bool) -> list[bool]:
    """Pin the fork pool (and its synonym) to alternate stage by stage between the
    pool and the parent, starting with ``first`` (True = dispatch): an
    inline stage then runs both before the pool starts and while it runs.
    Returns the decisions taken, in order."""
    decisions: list[bool] = []

    def dispatch_pays(self, tasks, n=None):
        turn = getattr(self, "mixed_turn", first)
        self.mixed_turn = not turn
        decisions.append(turn)
        return turn

    monkeypatch.setattr(ForkBackend, "dispatch_pays", dispatch_pays)
    return decisions


@pytest.mark.parametrize("instrumented", [False, True], ids=["plain", "instrumented"])
@pytest.mark.parametrize("first", [False, True], ids=["inline-first", "dispatch-first"])
@pytest.mark.parametrize("backend", ["fork", "shm", "threads"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_alternating_inline_and_dispatch(
    name, backend, first, instrumented, monkeypatch
):
    decisions = _alternating(monkeypatch, first)
    with use_backend(backend), use_instrumentation(
        metrics=instrumented, spans=instrumented
    ):
        got = run_case(name)
    if backend == "threads":
        # The serial loop under another name: however the fork pool's
        # rule is rigged, the synonym never asks it.
        assert decisions == []
    else:
        assert decisions[0] is first
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_threads_runs_every_case_without_a_pool(name, monkeypatch, tmp_path):
    """Every driver runs ``threads`` as the serial loop: each run of the
    case reports the name, runs no stage inline or on a pool, starts no
    pool, and leaves the golden values."""
    oplog = tmp_path / "ops.jsonl"
    monkeypatch.setenv("REPRO_OPLOG", str(oplog))
    with use_backend("threads"):
        got = run_case(name)
    assert got == GOLDEN[name]
    records = [json.loads(line) for line in oplog.read_text().splitlines()]
    assert not [r for r in records if r["event"] == "pool-started"]
    ends = [r for r in records if r["event"] == "run-end"]
    assert ends
    for end in ends:
        assert end["backend"] == "threads"
        assert end["inline_stages"] == 0
        assert end["dispatched_stages"] == 0
        assert end["pools_started"] == 0
