"""Closed-form curves for the subcritical ensemble: decay rates, spectral-edge
bounds, cluster-size distribution, finite-N probabilities, Poisson moments,
and the heuristic replica rate.

Everything here is a pure function of its arguments, and no sampling module is
imported: the Monte Carlo moment check sits beside its samples, in
:meth:`erlap.spectral.MomentSamples.inequality`.  Combinatorial
probabilities are evaluated in log-space with lgamma so that moderate sizes
do not underflow, and series are truncated adaptively against certified
tail majorants.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "FORMULA_VERSION",
    "TruncationBudgetError",
    "decay_f",
    "decay_F",
    "M_of_E",
    "zeta_three_halves_minus_one",
    "upper_bound_U",
    "lower_bound_L",
    "tau_n",
    "tau_tail_bound",
    "tau_normalization",
    "linear_prob_finite",
    "tree_prob_finite",
    "poisson_moment",
    "replica_q",
    "replica_g",
]

FORMULA_VERSION = "1"

TWO_SQRT3 = 2.0 * math.sqrt(3.0)


class TruncationBudgetError(RuntimeError):
    """Raised when a series cannot reach the requested tolerance within its cap."""


def _check_p_positive(p: float) -> float:
    p = float(p)
    if not p > 0.0 or not math.isfinite(p):
        raise ValueError(f"p must be positive and finite, got {p!r}")
    return p


def _check_p_subcritical(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in the open interval (0, 1), got {p!r}")
    return p


def decay_f(p: float) -> float:
    """Tail decay rate p - 1 - ln p of the cluster-size distribution.

    Strictly positive except at p = 1, where it vanishes.
    """
    p = _check_p_positive(p)
    return p - 1.0 - math.log(p)


def decay_F(p: float) -> float:
    """Chain decay rate p - ln p, subcritical only; equals decay_f(p) + 1."""
    p = _check_p_subcritical(p)
    return p - math.log(p)


def M_of_E(E):
    """Smallest integer chain length whose spectral gap upper bound 12/n^2
    falls below E: floor(sqrt(12/E)) + 1, clamped to >= 2.

    Near-integer arguments resolve by the floor of the computed double;
    when sqrt(12/E) lands exactly on an integer k the result is k + 1.
    Accepts scalar E (returns an int) or array E (returns an int64 array).
    """
    e = np.asarray(E, dtype=np.float64)
    if not np.all(e > 0.0):
        raise ValueError(f"energy must be positive, got {E!r}")
    m = np.maximum(2, np.floor(np.sqrt(12.0 / e)).astype(np.int64) + 1)
    return int(m) if np.isscalar(E) else m


def zeta_three_halves_minus_one() -> float:
    """zeta(3/2) - 1 = sum_{n>=2} n^{-3/2}, the constant of :func:`upper_bound_U`.

    The literal is what a float64 sum of the first 10^6 terms plus the midpoint
    integral tail 2/sqrt(10^6 + 1/2) gives.  It lies 2 ulps above the correctly
    rounded 1.6123753486854884 (mpmath at 40 digits) and is kept so that the
    ``upper`` columns of bounds.csv and bound_curve.csv stay byte-identical to
    earlier runs; moving to the correctly rounded value changes those columns.
    """
    return 1.6123753486854888


def upper_bound_U(E, p: float):
    """Explicit upper envelope for sigma(E) - sigma(0) at subcritical p.

    exp(-f(p) (E^{-1/2} - 1)) * (zeta(3/2) - 1) / sqrt(2 pi p), whose log is
    exactly linear in E^{-1/2} with slope -decay_f(p).  Accepts scalar or
    array E.
    """
    p = _check_p_subcritical(p)
    e = np.asarray(E, dtype=np.float64)
    if np.any(e <= 0.0):
        raise ValueError("energy must be positive")
    f = decay_f(p)
    val = np.exp(-f * (e**-0.5 - 1.0)) * (zeta_three_halves_minus_one() / math.sqrt(2.0 * math.pi * p))
    return float(val) if np.isscalar(E) else val


def lower_bound_L(E, p: float, mode: str = "staircase"):
    """Lower envelope for sigma(E) - sigma(0) from minimal linear chains.

    ``staircase`` evaluates exp(-(p - ln p) M(E)) / (2p), piecewise constant
    in E; ``smooth`` evaluates e^{-F(p)}/(2p) exp(-2 sqrt(3) F(p) E^{-1/2}),
    which never exceeds the staircase value.  Accepts scalar or array E.
    """
    p = _check_p_subcritical(p)
    e = np.asarray(E, dtype=np.float64)
    if np.any(e <= 0.0):
        raise ValueError("energy must be positive")
    F = decay_F(p)
    if mode == "staircase":
        val = np.exp(-F * M_of_E(e)) / (2.0 * p)
    elif mode == "smooth":
        val = math.exp(-F) / (2.0 * p) * np.exp(-TWO_SQRT3 * F * e**-0.5)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'staircase' or 'smooth'")
    return float(val) if np.isscalar(E) else val


def tau_n(p: float, n):
    """Limiting mean number density of clusters with n vertices.

    n^{n-2} p^{n-1} e^{-np} / n!, evaluated as
    exp((n-2) ln n + (n-1) ln p - n p - lgamma(n+1)).  Accepts scalar or
    array n.
    """
    p = _check_p_subcritical(p)
    narr = np.asarray(n)
    if np.any(narr < 1) or not np.issubdtype(narr.dtype, np.integer) and np.any(narr != np.floor(narr)):
        raise ValueError("cluster size n must be a positive integer")
    nf = narr.astype(np.float64)
    logv = (nf - 2.0) * np.log(nf) + (nf - 1.0) * math.log(p) - nf * p - gammaln(nf + 1.0)
    val = np.exp(logv)
    return float(val) if np.isscalar(n) else val


def tau_tail_bound(p: float, n):
    """Exponential majorant of tau_n: n^{-5/2} e^{-n f(p)} / (p sqrt(2 pi)).

    This is the exact consequence of the Stirling inequality
    n! >= (n/e)^n sqrt(2 pi n) applied to the cluster-size density, so it
    dominates tau_n for every n >= 1, with ratio shrinking to 1 like the
    Stirling correction e^{1/(12n)}.
    """
    p = _check_p_subcritical(p)
    narr = np.asarray(n)
    if np.any(narr < 1):
        raise ValueError("cluster size n must be a positive integer")
    nf = narr.astype(np.float64)
    f = decay_f(p)
    # single-exp log-space form: the margin over tau_n is only e^{1/(12n)},
    # so both sides must ride the same monotone exp to keep the ordering
    # intact down to the underflow floor
    logv = -nf * f - 2.5 * np.log(nf) - math.log(p) - 0.5 * math.log(2.0 * math.pi)
    val = np.exp(logv)
    return float(val) if np.isscalar(n) else val


def _tau_tail_sum_bound(p: float, cutoff: int) -> float:
    """Certified bound on sum_{n > cutoff} n tau_n(p) via the tail majorant.

    n tau_n <= c n^{-3/2} e^{-nf}; bound n^{-3/2} by cutoff^{-3/2} and sum
    the geometric remainder.
    """
    f = decay_f(p)
    c = 1.0 / (p * math.sqrt(2.0 * math.pi))
    return c * (cutoff + 1.0) ** -1.5 * math.exp(-(cutoff + 1.0) * f) / -math.expm1(-f)


def tau_normalization(p: float, tol: float, n_cap: int = 2_000_000) -> tuple[float, int]:
    """Partial sum of n tau_n(p) truncated so the certified tail is < tol/10.

    Returns (partial_sum, n_used).  The full series sums to one; the partial
    sum must land within tol of it.  Raises :class:`TruncationBudgetError`
    when p is so close to 1 that the required cutoff exceeds ``n_cap``.
    """
    p = _check_p_subcritical(p)
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    cutoff = 8
    while _tau_tail_sum_bound(p, cutoff) >= tol / 10.0:
        cutoff *= 2
        if cutoff > n_cap:
            raise TruncationBudgetError(
                f"truncation budget exceeded: tail below {tol!r} needs more than "
                f"{n_cap} terms at p={p!r}"
            )
    ns = np.arange(1, cutoff + 1, dtype=np.int64)
    partial = float(np.sum(ns * tau_n(p, ns)))
    return partial, cutoff


def linear_prob_finite(N: int, p: float, m: int) -> float:
    """Probability that a fixed vertex's cluster is a linear chain of m vertices
    in the N-vertex ensemble, from the explicit counting formula.

    C(N-1, m-1) (m!/2) (p/N)^{m-1} (1 - p/N)^{(N-3)(m-2) + 2(N-2)},
    evaluated in log-space.
    """
    N = int(N)
    m = int(m)
    if N < 2:
        raise ValueError("N must be at least 2")
    if not 2 <= m <= N:
        raise ValueError(f"chain length m must lie in [2, N], got {m}")
    p = float(p)
    if not 0.0 < p < N:
        raise ValueError(f"p must satisfy 0 < p < N, got {p!r}")
    logv = (
        _log_choose(N - 1, m - 1)
        + gammaln(m + 1.0)
        - math.log(2.0)
        + (m - 1.0) * (math.log(p) - math.log(N))
        + ((N - 3.0) * (m - 2.0) + 2.0 * (N - 2.0)) * math.log1p(-p / N)
    )
    return float(math.exp(logv))


def tree_prob_finite(N: int, p: float, n: int) -> float:
    """Mean number density of n-vertex tree clusters in the N-vertex ensemble.

    (1/N) C(N, n) n^{n-2} (p/N)^{n-1} (1 - p/N)^{n(N-n) + C(n,2) - n + 1};
    converges to tau_n(p) as N grows.
    """
    N = int(N)
    n = int(n)
    if N < 2:
        raise ValueError("N must be at least 2")
    if not 1 <= n <= N:
        raise ValueError(f"tree size n must lie in [1, N], got {n}")
    p = float(p)
    if not 0.0 < p < N:
        raise ValueError(f"p must satisfy 0 < p < N, got {p!r}")
    exponent = n * (N - n) + n * (n - 1) // 2 - n + 1
    logv = (
        -math.log(N)
        + _log_choose(N, n)
        + (n - 2.0) * math.log(n)
        + (n - 1.0) * (math.log(p) - math.log(N))
        + exponent * math.log1p(-p / N)
    )
    return float(math.exp(logv))


def _log_choose(n: int, k: int) -> float:
    return float(gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))


MAX_POISSON_POWER = 24


def poisson_moment(p: float, k: int) -> float:
    """k-th raw moment of a Poisson(p) variable by adaptive series summation.

    e^{-p} sum_n p^n n^k / n!, truncated once the terms are past their peak
    and negligible relative to the running sum.
    """
    p = _check_p_positive(p)
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_POISSON_POWER:
        raise ValueError(f"moment order must be an integer in [0, {MAX_POISSON_POWER}]")
    if k == 0:
        return 1.0
    total = 0.0
    n = 1
    while True:
        term = math.exp(n * math.log(p) - math.lgamma(n + 1.0) + k * math.log(n))
        total += term
        if n > p + 1.0 and n > k and term < 1e-17 * total:
            break
        n += 1
        if n > 100_000:
            raise TruncationBudgetError("poisson moment series failed to converge")
    return math.exp(-p) * total


def replica_q(p: float, tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Largest nonnegative root of Q = 1 - e^{-pQ}.

    Zero is the only nonnegative root for p <= 1; beyond that the root is
    found by fixed-point iteration from Q = 1, which approaches it from
    above.
    """
    p = _check_p_positive(p)
    if p <= 1.0:
        return 0.0
    q = 1.0
    for _ in range(max_iter):
        q_next = -math.expm1(-p * q)
        if abs(q_next - q) < 0.25 * tol:
            q = q_next
            break
        q = q_next
    residual = abs(q - 1.0 + math.exp(-p * q))
    if residual >= tol:
        raise TruncationBudgetError(
            f"fixed-point iteration for Q at p={p!r} stalled with residual {residual!r}"
        )
    return q


def replica_g(p: float) -> float:
    """Heuristic (non-rigorous) spectral-edge decay rate from replica theory.

    -[1 - p(1 - Q_p)]^{1/2} ln[p(1 - Q_p)]; for subcritical p this collapses
    to -(1-p)^{1/2} ln p and sits between decay_f(p) and
    2 sqrt(3) decay_F(p).
    """
    p = _check_p_positive(p)
    if p < 1.0:
        return -math.sqrt(1.0 - p) * math.log(p)
    q = replica_q(p)
    x = p * (1.0 - q)
    return -math.sqrt(1.0 - x) * math.log(x)
