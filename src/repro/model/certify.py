"""Static certification front-end.

Before a loop enters the speculative machinery, :func:`certify_loop`
analyzes its access pattern (via the symbolic probe layer in
:mod:`repro.loopir.symbolic`) and emits a typed :class:`LoopCertificate`:

* ``DOALL`` -- the iterations are provably independent.  The engine can
  run the loop with a zero-speculation fast path: plain loads/stores
  against committed memory, no shadow marking, no private views, no
  checkpoint, no analysis phase (:mod:`repro.core.fastpath`).
* ``SEQUENTIAL`` -- a cross-iteration flow-dependence chain covers
  (almost) every iteration, so speculation is provably doomed: the run
  would restart once per iteration.  The engine skips straight to a
  single in-order pass on one processor.
* ``SPECULATE`` -- neither extreme is provable (or the loop uses
  machinery the fast path cannot honor: speculative inductions,
  reductions, premature exits).  The certificate still carries a
  strategy/window *hint* for :mod:`repro.sched.predictor`.

Evidence quality is tracked by ``LoopCertificate.exact``: a full
sequential probe (every iteration executed with reference semantics)
yields exact certificates acted on under ``--certify=hint``; a sampled
probe of a large loop yields affine-model certificates acted on only
under ``--certify=trust``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.loopir.loop import SpeculativeLoop
from repro.loopir.symbolic import (
    DependenceSummary,
    affine_dependences,
    probe_loop,
)
from repro.machine.memory import MemoryImage

#: Verdict constants (plain strings so certificates serialize trivially).
DOALL = "DOALL"
SEQUENTIAL = "SEQUENTIAL"
SPECULATE = "SPECULATE"

#: Flow-chain coverage above which a loop is declared sequential: with a
#: critical path this close to the iteration count, a speculative run
#: commits O(1) iterations per stage and the paper's own model says the
#: overhead can never be recovered.
_SEQUENTIAL_CHAIN_FRACTION = 0.9


@dataclass(frozen=True)
class LoopCertificate:
    """Outcome of statically certifying one loop instantiation."""

    loop_name: str
    verdict: str  # DOALL | SEQUENTIAL | SPECULATE
    basis: str
    """Evidence class: ``"trivial"`` (n <= 1), ``"structural"`` (induction/
    reduction/exit machinery), ``"trace"`` (full sequential probe),
    ``"affine"`` (affine model over a sampled probe), ``"opaque"``
    (sampled probe did not fit the affine model)."""
    exact: bool
    """The verdict is proven for this instantiation (full probe or
    structural fact), as opposed to predicted by an affine model fitted
    to a sample."""
    reason: str
    strategy_hint: str | None = None
    """For SPECULATE: suggested strategy family (``"nrd"``, ``"adaptive"``,
    ``"sw"``, ``"induction"``)."""
    window_hint: int | None = None
    """For SPECULATE with ``strategy_hint="sw"``: suggested window size."""
    stats: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "loop": self.loop_name,
            "verdict": self.verdict,
            "basis": self.basis,
            "exact": self.exact,
            "reason": self.reason,
        }
        if self.strategy_hint is not None:
            out["strategy_hint"] = self.strategy_hint
        if self.window_hint is not None:
            out["window_hint"] = self.window_hint
        if self.stats:
            out["stats"] = dict(self.stats)
        return out

    def describe(self) -> str:
        """One-line rendering for stage traces and reports."""
        tail = ""
        if self.verdict == SPECULATE and self.strategy_hint:
            tail = f", hint={self.strategy_hint}"
            if self.window_hint is not None:
                tail += f"(w={self.window_hint})"
        kind = "exact" if self.exact else "model"
        return f"{self.verdict} [{self.basis}/{kind}]: {self.reason}{tail}"


def _next_pow2(x: int) -> int:
    p = 1
    while p < x:
        p <<= 1
    return p


def _trace_certificate(cert, probe, n: int) -> LoopCertificate:
    """The verdict a full probe proves (exact, ``basis="trace"``)."""
    deps = probe.dependences()
    stats = {
        "probed": len(probe.iterations),
        "conflicts": deps.conflicts,
        "critical_path": deps.critical_path,
        "max_distance": deps.max_distance,
        "sink_iterations": deps.sink_iterations,
    }
    if probe.exit_at is not None:
        # A premature exit is unsound under the plain DOALL fast path
        # (later iterations would already have written shared memory);
        # sequential in-order execution handles it naturally.
        if deps.conflicts == 0:
            return cert(
                SPECULATE, "trace", True,
                f"independent but exits early at iteration {probe.exit_at}",
                hint="nrd", exit_at=probe.exit_at, **stats,
            )
        executed = probe.exit_at + 1
        if deps.critical_path >= max(
            2, _SEQUENTIAL_CHAIN_FRACTION * executed
        ):
            return cert(
                SEQUENTIAL, "trace", True,
                f"flow chain covers {deps.critical_path} of {executed} "
                f"executed iterations (exit at {probe.exit_at})",
                exit_at=probe.exit_at, **stats,
            )
        hint, window = _speculate_hints(deps, executed)
        return cert(
            SPECULATE, "trace", True,
            f"{deps.conflicts} conflicting element(s) before exit",
            hint=hint, window=window, exit_at=probe.exit_at, **stats,
        )
    if deps.conflicts == 0:
        return cert(
            DOALL, "trace", True,
            "full sequential probe found no cross-iteration "
            "element sharing",
            **stats,
        )
    if deps.critical_path >= max(2, _SEQUENTIAL_CHAIN_FRACTION * n):
        return cert(
            SEQUENTIAL, "trace", True,
            f"flow-dependence chain covers {deps.critical_path} of "
            f"{n} iterations",
            **stats,
        )
    hint, window = _speculate_hints(deps, n)
    return cert(
        SPECULATE, "trace", True,
        f"{deps.conflicts} conflicting element(s), chain "
        f"{deps.critical_path}/{n}",
        hint=hint, window=window, **stats,
    )


def _speculate_hints(
    deps: DependenceSummary, n: int
) -> tuple[str, int | None]:
    """Map measured dependence structure to a strategy/window hint.

    Low sink density favors blocked NRD (failures are rare, redistribution
    overhead buys nothing); moderate density favors the adaptive policy;
    dense-but-short-distance dependences favor a sliding window sized a
    little beyond the maximum dependence distance (the window commits its
    prefix even when later iterations fail).
    """
    density = deps.sink_iterations / n if n else 0.0
    if density < 0.02:
        return "nrd", None
    if density < 0.25 or deps.max_distance > n // 2:
        return "adaptive", None
    window = _next_pow2(max(2, min(n, 2 * deps.max_distance)))
    return "sw", window


def certify_loop(
    loop: SpeculativeLoop,
    memory: MemoryImage | None = None,
    probe_limit: int = 4096,
    sample: int = 48,
    evidence: list | None = None,
) -> LoopCertificate:
    """Certify one loop instantiation.

    ``memory`` is the image the run will start from (defaults to the
    loop's own materialization); the probe never mutates it.
    ``probe_limit`` bounds the full-probe size -- larger loops get a
    sampled probe and affine-model (non-exact) evidence.

    When ``evidence`` is a list and a full probe proves DOALL or
    SEQUENTIAL, the probe (:class:`~repro.loopir.symbolic.ProbeResult`)
    is appended to it: that probe already ran the loop, and
    :func:`fastpath_strategy` can replay it instead of running the loop
    again.  The certificate itself never holds the probe.
    """
    n = loop.n_iterations

    def cert(verdict, basis, exact, reason, hint=None, window=None, **stats):
        return LoopCertificate(
            loop_name=loop.name,
            verdict=verdict,
            basis=basis,
            exact=exact,
            reason=reason,
            strategy_hint=hint,
            window_hint=window,
            stats={"n": n, **stats},
        )

    if loop.inductions:
        return cert(
            SPECULATE, "structural", True,
            "speculative induction variables require the two-phase runner",
            hint="induction",
        )
    if loop.reductions:
        return cert(
            SPECULATE, "structural", True,
            "reduction arrays need per-processor partials and a combine "
            "phase the plain fast path does not provide",
            hint="adaptive",
        )
    if n == 0:
        return cert(DOALL, "trivial", True, "0 iterations")
    # n == 1 still gets probed: a single iteration cannot conflict, but it
    # can call exit_loop(), which the plain DOALL path must not absorb.

    try:
        probe = probe_loop(loop, memory=memory, limit=probe_limit, sample=sample)
    except Exception as exc:  # noqa: BLE001 -- certification must be transparent
        # A body that raises (or otherwise breaks under probing) is not a
        # certification failure: fall through to the speculative machinery
        # so the exception surfaces with the engine's usual semantics
        # (partial traces flushed, checkpoints restored).
        return cert(
            SPECULATE, "opaque", False,
            f"probe aborted: {type(exc).__name__}: {exc}",
        )

    if probe.full:
        certificate = _trace_certificate(cert, probe, n)
        if evidence is not None and certificate.verdict in (DOALL, SEQUENTIAL):
            evidence.append(probe)
        return certificate

    # Sampled probe: affine-model evidence only.
    if probe.exit_at is not None:
        return cert(
            SPECULATE, "opaque", False,
            f"sampled probe observed a premature exit at {probe.exit_at}",
            hint="nrd", probed=len(probe.iterations),
        )
    if not probe.uniform or probe.sites is None:
        return cert(
            SPECULATE, "opaque", False,
            "sampled iterations do not fit a single affine access "
            "signature",
            hint="adaptive", probed=len(probe.iterations),
        )
    deps = affine_dependences(probe.sites, n)
    stats = {
        "probed": len(probe.iterations),
        "sites": len(probe.sites),
        "conflicts": deps.conflicts,
        "critical_path": deps.critical_path,
        "max_distance": deps.max_distance,
    }
    if deps.conflicts == 0:
        return cert(
            DOALL, "affine", False,
            f"{len(probe.sites)} affine site(s) are pairwise disjoint "
            f"over [0, {n})",
            **stats,
        )
    if deps.critical_path >= max(2, _SEQUENTIAL_CHAIN_FRACTION * n):
        return cert(
            SEQUENTIAL, "affine", False,
            f"affine flow chain covers {deps.critical_path} of {n} "
            "iterations",
            **stats,
        )
    hint, window = _speculate_hints(deps, n)
    return cert(
        SPECULATE, "affine", False,
        f"{deps.conflicts} predicted conflicting pair(s)",
        hint=hint, window=window, **stats,
    )


def fastpath_strategy(
    certificate: LoopCertificate | None, config, probe=None
):
    """Resolve a certificate to a fast-path strategy object, or ``None``.

    ``None`` means "no fast path": the caller falls through to the normal
    registry resolution.  Non-exact (affine-model) certificates are acted
    on only under ``certify="trust"``.  With ``probe`` -- the full probe
    the certificate rests on, as :func:`certify_loop` hands it out -- the
    strategy replays the probe instead of executing the loop body
    (:mod:`repro.core.fastpath`); without it, it executes the body.
    """
    if certificate is None:
        return None
    if not certificate.exact and config.certify != "trust":
        return None
    from repro.core.fastpath import CertifiedDoall, CertifiedSequential

    if certificate.verdict == DOALL:
        return CertifiedDoall(certificate, probe)
    if certificate.verdict == SEQUENTIAL:
        return CertifiedSequential(certificate, probe)
    return None
