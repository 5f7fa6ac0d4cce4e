"""Closed-form execution-time model of the R-LRPD test (paper, Section 4).

Inputs: ``n`` iterations of cost ``omega`` each, ``p`` processors, barrier
cost ``s``, per-iteration redistribution cost ``ell``.  Loops are classified
by their dependence distribution:

* **geometric (alpha) loops** -- a constant fraction ``1 - alpha`` of the
  *remaining* iterations completes in each speculative step;
* **linear (beta) loops** -- a constant fraction ``1 - beta`` of the
  *original* iterations completes in each step.

Key quantities (equation numbers from the paper):

* ``k_s`` -- steps to finish without redistribution; geometric:
  ``log_{1/alpha} p`` (the remainder fits on one processor); linear:
  ``1 / (1 - beta)``.
* ``T_static(n) = k_s * (n*omega/p + s)`` (Eq. 1 with the per-step span
  ``n*omega/p``: NRD re-executes fixed blocks, so every step costs the span
  of one original block plus a barrier; the worked examples "fully parallel:
  n*omega/p + s" and "sequential: n*omega + p*s" pin this form down).
* ``T_dyn`` (Eqs. 2-3) -- with redistribution, step ``i`` runs ``n_i``
  iterations over all ``p`` processors at ``(omega + ell)`` per iteration
  plus a barrier.
* ``k_d`` (Eqs. 4, 7) -- redistribution pays while
  ``n_kd >= p*s/(omega - ell)``; for geometric loops
  ``k_d = log_alpha((s/(omega-ell)) * (p/n))``.
* ``T(n) = T_dyn(n) + T_static(n_kd)`` (Eqs. 5-6).
"""

from __future__ import annotations

import math


def _check_common(n: int, omega: float, s: float, p: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < 1:
        raise ValueError("p must be at least 1")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if s < 0:
        raise ValueError("s must be non-negative")


def k_s_geometric(alpha: float, p: int) -> float:
    """Steps to completion without redistribution, geometric loop.

    The final step occurs when the remaining work fits on one processor:
    ``n*alpha^k = n/p`` gives ``k = log_{1/alpha}(p)``.  ``alpha = 0``
    (fully parallel) gives 1 step.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if p < 1:
        raise ValueError("p must be at least 1")
    if alpha == 0.0 or p == 1:
        return 1.0
    return max(1.0, math.log(p) / math.log(1.0 / alpha))


def k_s_linear(beta: float) -> float:
    """Steps to completion, linear loop: ``k_s = 1 / (1 - beta)``.

    ``beta = 0`` (fully parallel): one step.  ``beta = (p-1)/p`` (one
    processor's worth per step): ``p`` steps.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    return 1.0 / (1.0 - beta)


def t_static(n: int, omega: float, s: float, p: int, k_s: float) -> float:
    """NRD total time: ``k_s`` steps, each one block-span plus a barrier."""
    _check_common(n, omega, s, p)
    return k_s * (n * omega / p + s)


def remaining_after(n: int, alpha: float, steps: int) -> float:
    """Iterations still uncommitted after ``steps`` geometric stages."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return n * alpha**steps


def k_d_geometric(
    n: int, omega: float, ell: float, s: float, p: int, alpha: float
) -> float:
    """Number of steps for which redistribution pays (Eq. 7).

    Redistribution continues while ``n_kd >= p*s / (omega - ell)``
    (Eq. 4).  Returns 0 when redistribution never pays (``omega <= ell``
    or the threshold already exceeds ``n``).
    """
    _check_common(n, omega, s, p)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1) for k_d, got {alpha}")
    if omega <= ell or n == 0:
        return 0.0
    threshold = p * s / (omega - ell)
    if threshold <= 0:
        return math.inf
    ratio = threshold / n
    if ratio >= 1.0:
        return 0.0
    # n * alpha^k = threshold  =>  k = log_alpha(threshold / n)
    return math.log(ratio) / math.log(alpha)


def t_dyn_geometric(
    n: int,
    omega: float,
    ell: float,
    s: float,
    p: int,
    alpha: float,
    k_d: float,
) -> float:
    """Redistribution-phase time (Eqs. 2-3) for a geometric loop.

    ``sum_{i=0}^{k_d} n_i = n * (1 - alpha^(k_d + 1)) / (1 - alpha)``; every
    step costs ``(omega + ell)/p`` per remaining iteration plus a barrier.
    The initial step pays no redistribution, matching the paper's
    experimental setup, so ``ell`` applies to steps ``1..k_d`` only.
    """
    _check_common(n, omega, s, p)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    steps = int(math.floor(k_d)) + 1  # steps 0 .. k_d
    total = 0.0
    for i in range(steps):
        n_i = n * alpha**i
        move = ell if i > 0 else 0.0
        total += n_i * (omega + move) / p + s
    return total


def total_time_geometric(
    n: int, omega: float, ell: float, s: float, p: int, alpha: float
) -> float:
    """End-to-end model time ``T(n) = T_dyn(n) + T_static(n_kd)`` (Eq. 6)."""
    k_d = k_d_geometric(n, omega, ell, s, p, alpha)
    k_d_int = int(math.floor(k_d))
    dyn = t_dyn_geometric(n, omega, ell, s, p, alpha, k_d)
    n_kd = remaining_after(n, alpha, k_d_int + 1)
    if n_kd < 1.0:
        return dyn
    k_s = k_s_geometric(alpha, p)
    return dyn + t_static(int(round(n_kd)), omega, s, p, k_s)


def total_time_linear(n: int, omega: float, s: float, p: int, beta: float) -> float:
    """NRD model time for a linear (beta) loop: ``k_s`` fixed-size steps.

    The paper notes redistribution is not meaningful for beta loops ("the
    number of iterations each processor is assigned varies from one
    speculative parallelization to another" breaks the constant-fraction
    assumption), so only the static form applies.
    """
    return t_static(n, omega, s, p, k_s_linear(beta))


def speedup_geometric(
    n: int, omega: float, ell: float, s: float, p: int, alpha: float
) -> float:
    """Model-predicted speedup of the RD-then-NRD execution over sequential."""
    t = total_time_geometric(n, omega, ell, s, p, alpha)
    return (n * omega) / t if t > 0 else float("inf")


def speedup_linear(n: int, omega: float, s: float, p: int, beta: float) -> float:
    """Model-predicted speedup of the NRD execution of a linear loop."""
    t = total_time_linear(n, omega, s, p, beta)
    return (n * omega) / t if t > 0 else float("inf")
