"""Closed-form curves: frozen golden values, identities, and domination scans.

Golden values were computed independently at 40-digit precision (mpmath) and
are asserted here against the library's log-space double-precision routes.
"""

import math

import numpy as np
import pytest

from erlap import analytics
from erlap.analytics import (
    M_of_E,
    TruncationBudgetError,
    decay_F,
    decay_f,
    linear_prob_finite,
    lower_bound_L,
    poisson_moment,
    replica_g,
    replica_q,
    tau_n,
    tau_normalization,
    tau_tail_bound,
    tree_prob_finite,
    upper_bound_U,
    zeta_three_halves_minus_one,
)
from erlap.spectral import MomentSamples

from oracles import poisson_moment_exact

P_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


# --- decay parameters -------------------------------------------------------


def test_decay_f_values():
    assert decay_f(1.0) == 0.0
    assert abs(decay_f(0.5) - 0.19314718055994531) < 1e-15
    assert abs(decay_f(0.9) - 0.005360515657826301) < 1e-15
    assert decay_f(0.2) > 0 and decay_f(3.0) > 0
    with pytest.raises(ValueError):
        decay_f(0.0)
    with pytest.raises(ValueError):
        decay_f(-1.0)


def test_decay_F_values_and_identity():
    assert abs(decay_F(0.5) - 1.1931471805599454) < 1e-15
    assert decay_F(1.0 - 1e-9) - 1.0 < 1e-8  # F -> 1 at the critical point
    for p in P_GRID:
        if p < 1.0:
            assert abs(decay_F(p) - decay_f(p) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        decay_F(1.0)
    with pytest.raises(ValueError):
        decay_F(0.0)


# --- integer thresholds -----------------------------------------------------


def test_M_of_E_examples():
    assert M_of_E(12.0) == 2
    assert M_of_E(0.12) == 11
    assert M_of_E(3.0) == 3
    assert M_of_E(1000.0) == 2  # clamped to the smallest meaningful chain
    m = M_of_E(np.array([12.0, 0.12, 3.0, 1000.0]))
    assert m.dtype == np.int64 and m.tolist() == [2, 11, 3, 2]
    assert type(M_of_E(0.12)) is int
    with pytest.raises(ValueError):
        M_of_E(-1.0)


def test_M_of_E_near_integer_policy():
    # contract: floor of the computed double, plus one; when sqrt(12/E)
    # evaluates exactly to integer k the result is k + 1
    for k in range(1, 61):
        e = 12.0 / (k * k)
        expected = max(2, math.floor(math.sqrt(12.0 / e)) + 1)
        got = M_of_E(e)
        assert got == expected
        assert got in (k, k + 1)
    # exactly representable cases resolve to k + 1
    assert M_of_E(12.0 / 4) == 3
    assert M_of_E(12.0 / 16) == 5


# --- bound curves -----------------------------------------------------------


def test_zeta_constant():
    # the literal the 10^6-term sum gave, 2 ulps above the correctly rounded value
    import mpmath

    assert zeta_three_halves_minus_one() == 1.6123753486854888
    with mpmath.workdps(40):
        ref = float(mpmath.zeta(mpmath.mpf(3) / 2) - 1)
    assert ref == 1.6123753486854884
    assert abs(zeta_three_halves_minus_one() - ref) <= 2 * np.spacing(ref)


def test_upper_bound_golden_values():
    assert abs(upper_bound_U(0.1, 0.5) - 0.5991194332483333) < 1e-12
    assert abs(upper_bound_U(0.05, 0.5) - 0.46519912018803466) < 1e-12
    assert abs(upper_bound_U(0.5, 0.5) - 0.8397419295390659) < 1e-12
    with pytest.raises(ValueError):
        upper_bound_U(0.1, 1.5)
    with pytest.raises(ValueError):
        upper_bound_U(-0.1, 0.5)


def test_upper_bound_log_linear_in_inverse_sqrt_energy():
    # ln U is exactly linear in E^{-1/2} with slope -decay_f(p)
    for p in (0.2, 0.5, 0.8):
        f = decay_f(p)
        e1, e2 = 0.3, 0.004
        slope = (math.log(upper_bound_U(e1, p)) - math.log(upper_bound_U(e2, p))) / (
            e1**-0.5 - e2**-0.5
        )
        assert abs(slope + f) < 1e-9


def test_lower_bound_golden_and_staircase():
    assert abs(lower_bound_L(0.12, 0.5) - 1.9954938664375325e-06) < 1e-18
    # constant on intervals of constant M(E)
    assert lower_bound_L(0.13, 0.5) == lower_bound_L(0.14, 0.5)
    assert M_of_E(0.13) == M_of_E(0.14)
    with pytest.raises(ValueError):
        lower_bound_L(0.1, 0.5, mode="nonsense")
    with pytest.raises(ValueError):
        lower_bound_L(0.1, 1.2)


def test_smooth_lower_bound_below_staircase():
    # valid wherever the chain threshold is unclamped, i.e. E <= 12; above
    # that the staircase saturates at the two-vertex chain contribution
    energies = np.geomspace(1e-4, 12.0, 400)
    for p in (0.1, 0.5, 0.9):
        smooth = lower_bound_L(energies, p, "smooth")
        stair = lower_bound_L(energies, p, "staircase")
        assert np.all(smooth <= stair * (1 + 1e-12))


def test_staircase_equals_limit_chain_term():
    # exp(-(p - ln p) M) / (2p) equals the large-N chain limit (M/2) p^{M-1} e^{-pM},
    # divided by M, algebraically
    for p in (0.3, 0.5, 0.7):
        for e in (0.01, 0.12, 0.5, 3.0):
            m_chain = M_of_E(e)
            lhs = lower_bound_L(e, p)
            rhs = 0.5 * p ** (m_chain - 1) * math.exp(-p * m_chain)
            assert abs(lhs - rhs) < 1e-15 * max(1.0, abs(lhs))


def test_sandwich_lower_below_upper():
    energies = np.geomspace(1e-4, 1.0, 60)
    for p in P_GRID:
        if p >= 1.0:
            continue
        lo = lower_bound_L(energies, p)
        up = upper_bound_U(energies, p)
        mask = (lo < 1.0) & (up < 1.0)
        assert np.all(lo[mask] <= up[mask]), p


def test_asymptotic_slopes_by_finite_differences():
    # d ln U / d E^{-1/2} = -f and d ln L_smooth / d E^{-1/2} = -2 sqrt(3) F
    p = 0.5
    x1, x2 = 40.0, 40.0001  # values of E^{-1/2}, inside the representable range
    e1, e2 = x1**-2, x2**-2
    num_u = (math.log(upper_bound_U(e2, p)) - math.log(upper_bound_U(e1, p))) / (x2 - x1)
    assert abs(num_u + decay_f(p)) < 1e-9 * max(1.0, decay_f(p))
    num_l = (
        math.log(lower_bound_L(e2, p, "smooth")) - math.log(lower_bound_L(e1, p, "smooth"))
    ) / (x2 - x1)
    target = 2.0 * math.sqrt(3.0) * decay_F(p)
    assert abs(num_l + target) < 1e-9 * target


# --- cluster-size distribution ----------------------------------------------


def test_tau_n_golden_values():
    assert abs(tau_n(0.5, 1) - math.exp(-0.5)) < 1e-16
    assert abs(tau_n(0.5, 2) - 0.09196986029286058) < 1e-15
    assert abs(tau_n(0.5, 3) - 0.027891270018553727) < 1e-15
    assert abs(tau_n(0.5, 50) / 2.8817314121617613e-09 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        tau_n(0.5, 0)
    with pytest.raises(ValueError):
        tau_n(1.5, 3)


def test_tau_n_high_precision_relative_accuracy():
    import mpmath

    mpmath.mp.dps = 40
    # float64 log-space rounding grows with lgamma(n+1); 1e-12 holds to
    # n ~ 500 and ~5e-12 through n = 3000 (beyond that values underflow
    # for these p anyway)
    for p in (0.1, 0.5, 0.9):
        for n in (1, 2, 7, 40, 200, 1000, 3000):
            ref = float(
                mpmath.mpf(n) ** (n - 2)
                * mpmath.mpf(repr(p)) ** (n - 1)
                * mpmath.exp(-n * mpmath.mpf(repr(p)))
                / mpmath.gamma(n + 1)
            )
            if ref == 0.0 or not math.isfinite(math.log(ref)):
                continue
            tol = 1e-12 if n <= 500 else 5e-12
            assert abs(tau_n(p, n) / ref - 1.0) < tol, (p, n)


def test_tau_tail_bound_golden_and_domination():
    assert abs(tau_tail_bound(0.5, 1) - 0.657744623479457) < 1e-12
    ns = np.arange(1, 1001)
    for p in P_GRID:
        if p >= 1.0:
            continue
        assert not np.any(tau_n(p, ns) > tau_tail_bound(p, ns)), p


def test_tail_bound_ratio_is_stirling_correction():
    # bound / tau equals exp(theta_n) with theta_n in (1/(12n+1), 1/(12n))
    ns = np.arange(1, 400)
    for p in (0.2, 0.5, 0.8):
        ratio = tau_tail_bound(p, ns) / tau_n(p, ns)
        theta = np.log(ratio)
        assert np.all(theta > 1.0 / (12.0 * ns + 1.0) - 1e-12)
        assert np.all(theta < 1.0 / (12.0 * ns) + 1e-12)
        assert np.all(np.diff(ratio) < 0)  # shrinks toward 1


def test_tau_normalization():
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        total, n_used = tau_normalization(p, 1e-8)
        assert abs(total - 1.0) < 1e-8, (p, total)
        assert n_used >= 8
    total, n_used = tau_normalization(0.1, 1e-10)
    assert abs(total - 1.0) < 1e-10
    assert n_used <= 64  # fast decay needs only a short sum
    with pytest.raises(TruncationBudgetError):
        tau_normalization(0.999, 1e-10, n_cap=10_000)
    with pytest.raises(ValueError):
        tau_normalization(0.5, -1.0)


def test_tau_table_partial_sums_increase():
    # strictly increasing while the terms stay above double precision ...
    # (the partial_sum_n_tau column of erlap tau)
    ns = np.arange(1, 201, dtype=np.int64)
    tau = tau_n(0.5, ns)
    partial_sums = np.cumsum(ns * tau)
    assert np.all(np.diff(partial_sums[:60]) > 0)
    # ... nondecreasing (and capped by 1) once the sum saturates
    assert np.all(np.diff(partial_sums) >= 0)
    assert partial_sums[-1] < 1.0 + 1e-12
    assert np.all(tau <= tau_tail_bound(0.5, ns))


# --- finite-N probabilities --------------------------------------------------


def test_linear_prob_finite_golden():
    assert abs(linear_prob_finite(200, 0.5, 3) / 0.08372243054168417 - 1.0) < 1e-12
    assert abs(linear_prob_finite(200, 0.5, 2) / 0.18463040024431257 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        linear_prob_finite(200, 0.5, 1)
    with pytest.raises(ValueError):
        linear_prob_finite(200, 0.5, 201)
    with pytest.raises(ValueError):
        linear_prob_finite(200, 200.0, 3)


def test_linear_prob_finite_m2_boundary():
    # at m = 2 the interior-vertex exponent term vanishes:
    # (N-1) (p/N) (1 - p/N)^{2(N-2)}
    n, p = 100, 0.5
    direct = (n - 1) * (p / n) * (1 - p / n) ** (2 * (n - 2))
    assert abs(linear_prob_finite(n, p, 2) / direct - 1.0) < 1e-12


def test_linear_prob_finite_converges_to_limit():
    p, m = 0.5, 3
    limit = 0.5 * m * p ** (m - 1) * math.exp(-p * m)  # (m/2) p^{m-1} e^{-pm}
    gaps = []
    for n in (100, 1000, 10_000, 100_000):
        gaps.append(abs(linear_prob_finite(n, p, m) - limit))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[2] / limit < 0.01  # within 1% by N = 10^4


def test_tree_prob_finite_values_and_limit():
    # n = 1 collapses to the isolated-vertex probability (1 - p/N)^{N-1}
    n_vertices, p = 100, 0.5
    direct = (1 - p / n_vertices) ** (n_vertices - 1)
    assert abs(tree_prob_finite(n_vertices, p, 1) / direct - 1.0) < 1e-12
    assert abs(tree_prob_finite(100, 0.5, 1) / 0.6088145090359077 - 1.0) < 1e-12
    # lgamma(N+1) rounding dominates at N = 1e4; 1e-10 is the honest bar
    assert abs(tree_prob_finite(10_000, 0.5, 3) / 0.027893012824069 - 1.0) < 1e-10
    # within half a percent of the limit by N = 10^4
    assert abs(tree_prob_finite(10_000, 0.5, 3) / tau_n(0.5, 3) - 1.0) < 0.005
    gaps = [abs(tree_prob_finite(n, 0.5, 4) - tau_n(0.5, 4)) for n in (100, 1000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        tree_prob_finite(100, 0.5, 0)
    with pytest.raises(ValueError):
        tree_prob_finite(100, 0.5, 101)


# --- Poisson moments ---------------------------------------------------------


def test_poisson_moment_small_orders():
    assert poisson_moment(0.5, 0) == 1.0
    assert abs(poisson_moment(0.5, 1) - 0.5) < 1e-14
    assert abs(poisson_moment(0.5, 2) - 0.75) < 1e-13
    assert abs(poisson_moment(0.5, 4) - 3.0625) < 1e-12
    with pytest.raises(ValueError):
        poisson_moment(0.5, 25)
    with pytest.raises(ValueError):
        poisson_moment(0.0, 2)


def test_poisson_moment_against_touchard():
    for p in (0.3, 0.5, 2.0):
        for k in range(0, 25):
            series = poisson_moment(p, k)
            exact = poisson_moment_exact(p, k)
            assert abs(series / exact - 1.0) < 1e-12, (p, k)


# --- replica rate ------------------------------------------------------------


def test_replica_values():
    assert abs(replica_g(0.5) - 0.4901290717342736) < 1e-14
    assert replica_q(0.5) == 0.0
    assert replica_q(1.0) == 0.0
    q2 = replica_q(2.0)
    assert abs(q2 - 0.79681213002002) < 1e-11
    assert abs(q2 - 1.0 + math.exp(-2.0 * q2)) < 1e-12
    assert abs(replica_g(2.0) - 0.693790715172965) < 1e-10
    with pytest.raises(ValueError):
        replica_g(0.0)


def test_replica_iteration_cap():
    with pytest.raises(TruncationBudgetError):
        replica_q(2.0, max_iter=1)


def test_replica_sits_inside_window():
    for p in P_GRID:
        if p >= 1.0:
            continue
        g = replica_g(p)
        assert decay_f(p) <= g <= 2.0 * math.sqrt(3.0) * decay_F(p), p


# --- bound curves --------------------------------------------------------------


def test_bound_curve_container():
    # the staircase and upper columns of erlap bounds
    e = np.geomspace(0.01, 1.0, 12)
    lower, upper = lower_bound_L(e, 0.5, "staircase"), upper_bound_U(e, 0.5)
    assert np.all(lower <= upper)
    assert abs(decay_F(0.5) - decay_f(0.5) - 1.0) < 1e-14
    assert e.shape == lower.shape == upper.shape


def test_moment_inequality_check_synthetic():
    # the check lives beside its samples, MomentSamples.inequality; rows are
    # (realization, power) arrays at 2k = 2
    def samples(lap, deg, adj):
        cols = [np.array(x, dtype=np.float64)[:, None] for x in (lap, deg, adj)]
        return MomentSamples(100, 0.5, 4, (2,), *cols)

    report = samples([1.2, 1.22, 1.18, 1.2], [0.75] * 4, [0.5, 0.49, 0.51, 0.5]).inequality(1)
    assert report.satisfied
    assert (report.k, report.n, report.p, report.n_reps) == (1, 100, 0.5, 4)
    assert abs(report.rhs_mean - 2.0 * (0.75 + 0.5)) < 1e-12
    assert abs(report.slack_mean - 1.3) < 1e-12
    with pytest.raises(ValueError, match="power 4 was not collected"):
        samples([1.2] * 4, [0.75] * 4, [0.5] * 4).inequality(2)

    # the inequality holds for every graph: one negative row fails the check
    # even though the mean slack is far above -4 standard errors
    report = samples([1.2, 1.22, 2.5 + 1e-9, 1.2], [0.75] * 4, [0.5, 0.49, 0.5, 0.5]).inequality(1)
    assert report.slack_mean > -4.0 * report.slack_se
    assert not report.satisfied
