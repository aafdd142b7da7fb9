"""lsq against scipy, its oracle: the bounded TRF fit and ndtr, compared bit for bit."""

import math

import numpy as np
import pytest

from helpers import closure_density
from regime_bench import lsq
from regime_bench import masks as mk
from regime_bench import missingness as mz
from regime_bench.errors import ConvergenceError

LB = np.array([0.0, 1e-6, 0.0, mz.DELTA_MIN_SUSTAINED, 1e-6, 0.0])
UB = np.array([np.inf, 1.0, np.inf, mz.DELTA_MAX, 120.0, np.inf])


def mixture_histogram(rng):
    """A unit-mass histogram of 30-400 durations drawn from a random three-part mixture."""
    n = int(rng.integers(30, 400))
    part = rng.choice(3, n, p=rng.dirichlet([1.0, 1.0, 1.0]))
    minutes = np.select(
        [part == 0, part == 1],
        [10.0 + rng.exponential(1.0 / rng.uniform(0.005, 0.2), n),
         rng.normal(rng.uniform(20.0, 230.0), rng.uniform(3.0, 60.0), n)],
        rng.uniform(10.0, 240.0, n))
    grid = 5 * np.floor(minutes / 5.0 + 0.5)
    return mz.duration_histogram(np.clip(grid, mz.DELTA_MIN_SUSTAINED, mz.DELTA_MAX).astype(int))


def fit_problem(values):
    """The residuals, start and bounds of fit_duration_density's call on values."""
    centers = mz.BIN_CENTERS
    near_120 = int(np.argmin(np.abs(centers - 120.0)))
    x0 = np.array([values.max(), 0.02, max(values[near_120], 1e-12), 120.0, 20.0, values.min()])
    return (lambda th: closure_density(th, centers) - values), np.clip(x0, LB, UB)


def both_fits(values, max_nfev=20000):
    """(scipy's (x, residuals, status), lsq's) for one histogram."""
    from scipy.optimize import least_squares

    fun, x0 = fit_problem(values)
    expected = least_squares(fun, x0, bounds=(LB, UB), max_nfev=max_nfev)
    return (expected.x, expected.fun, expected.status), lsq.least_squares(fun, x0, LB, UB, max_nfev)


def same(a, b):
    """Whether two (x, residuals, status) results are equal, element for element."""
    return all(np.array_equal(u, v) for u, v in zip(a, b, strict=True))


class TestLeastSquares:
    def test_a_thousand_histograms_fit_bit_for_bit(self):
        rng = np.random.default_rng(2027)
        statuses, differ = [], []
        for i in range(1000):
            expected, got = both_fits(mixture_histogram(rng))
            statuses.append(expected[2])
            if not same(expected, got):
                differ.append(i)
        assert differ == []
        assert set(statuses) == {1, 2, 3, 4}

    @pytest.mark.parametrize("max_nfev", [1, 2, 5, 9])
    def test_running_out_of_evaluations_is_status_0(self, max_nfev):
        expected, got = both_fits(mixture_histogram(np.random.default_rng(max_nfev)), max_nfev)
        assert expected[2] == 0
        assert same(expected, got)

    @pytest.mark.parametrize("edit", [
        lambda v: np.zeros_like(v),
        lambda v: np.eye(1, v.size, 0)[0],
        lambda v: np.eye(1, v.size, v.size - 1)[0],
        lambda v: np.full_like(v, 1.0 / v.size),
    ], ids=["all-zero", "first-bin", "last-bin", "flat"])
    def test_degenerate_histograms(self, edit):
        expected, got = both_fits(edit(np.ones(mz.BIN_CENTERS.size)))
        assert same(expected, got)

    def test_start_outside_the_bounds_rejected(self):
        fun, _ = fit_problem(np.full(mz.BIN_CENTERS.size, 1.0 / mz.BIN_CENTERS.size))
        with pytest.raises(ValueError, match="^Initial guess is outside of provided bounds$"):
            lsq.least_squares(fun, np.zeros(6), LB, UB, 20000)

    def test_fit_duration_density_fits_as_scipy_does(self):
        from scipy.optimize import least_squares

        values = mixture_histogram(np.random.default_rng(11))
        fun, x0 = fit_problem(values)
        x = least_squares(fun, x0, bounds=(LB, UB), max_nfev=20000).x
        assert repr(mz.fit_duration_density(mz.BIN_CENTERS, values)) == repr(
            mz.make_mixture(*(float(v) for v in x)))

    def test_fit_out_of_evaluations_is_a_convergence_error(self, monkeypatch):
        values = mixture_histogram(np.random.default_rng(11))
        full, runs = lsq.least_squares, []

        def capped(fun, x0, lb, ub, max_nfev):
            runs.append(full(fun, x0, lb, ub, 3))
            return runs[-1]

        monkeypatch.setattr(lsq, "least_squares", capped)
        with pytest.raises(ConvergenceError) as exc:
            mz.fit_duration_density(mz.BIN_CENTERS, values)
        (_, residuals, status), = runs
        assert status == 0
        assert str(exc.value) == (
            f"duration fit did not converge (residual norm {np.linalg.norm(residuals):.3e})")


def ndtr_edges():
    """Each branch edge of Cephes ndtr and erfc, with its neighbours, as ndtr's argument."""
    points = [0.0, -0.0, math.inf, -math.inf, math.nan]
    # |a| / sqrt(2) at 1/sqrt(2) (erf or erfc), at 1 and 8 (erfc's three forms), and at
    # sqrt(MAXLOG), past which exp(-a*a/2) underflows
    for edge in (1.0, math.sqrt(2.0), 1.0 / lsq.SQRT1_2, 8.0 * math.sqrt(2.0), 8.0 / lsq.SQRT1_2,
                 math.sqrt(lsq.MAXLOG) / lsq.SQRT1_2):
        for x in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)):
            points += [x, -x]
    return np.array(points)


class TestNdtr:
    def test_100k_points_and_the_edges_equal_scipys(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(2027)
        points = np.concatenate([rng.uniform(-50.0, 50.0, 90_000), rng.uniform(-2.0, 2.0, 10_000),
                                 ndtr_edges()])
        assert np.array_equal(lsq.ndtr(points), ndtr(points), equal_nan=True)

    def test_underflow_gives_zero_and_one(self):
        assert lsq.ndtr(np.array([-40.0, 40.0, -1e308, 1e308])).tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_shape_and_scalars_kept(self):
        from scipy.special import ndtr

        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert np.array_equal(lsq.ndtr(grid), ndtr(grid))
        assert type(lsq.ndtr(0.25)) is np.float64 and lsq.ndtr(0.25) == ndtr(0.25)


def scipy_masses(m):
    """DurationMixture.component_masses with scipy's ndtr."""
    from scipy.special import ndtr

    span = mz.DELTA_MAX - mz.DELTA_MIN_SUSTAINED
    lo = (mz.DELTA_MIN_SUSTAINED - m.mu) / m.sigma
    hi = (mz.DELTA_MAX - m.mu) / m.sigma
    return (m.A * (1.0 - math.exp(-m.k * span)) / m.k,
            m.B * m.sigma * math.sqrt(2.0 * math.pi) * (ndtr(hi) - ndtr(lo)), m.gamma * span)


def scipy_cdf(m, x):
    """DurationMixture.cdf with scipy's ndtr."""
    from scipy.special import ndtr

    x = np.clip(np.asarray(x, dtype=float), mz.DELTA_MIN_SUSTAINED, mz.DELTA_MAX)
    span = mz.DELTA_MAX - mz.DELTA_MIN_SUSTAINED
    f_exp = -np.expm1(-m.k * (x - mz.DELTA_MIN_SUSTAINED)) / -math.expm1(-m.k * span)
    lo = (mz.DELTA_MIN_SUSTAINED - m.mu) / m.sigma
    denom = ndtr((mz.DELTA_MAX - m.mu) / m.sigma) - ndtr(lo)
    if denom <= 0.0:
        f_gauss = (x >= m.mu).astype(float)
    else:
        f_gauss = (ndtr((x - m.mu) / m.sigma) - ndtr(lo)) / denom
    f_unif = (x - mz.DELTA_MIN_SUSTAINED) / span
    return m.w_exp * f_exp + m.w_gauss * f_gauss + m.w_unif * f_unif


def mixtures():
    rng = np.random.default_rng(5)
    drawn = [mz.make_mixture(rng.uniform(0.0, 0.1), rng.uniform(1e-6, 1.0), rng.uniform(0.0, 0.1),
                             rng.uniform(10.0, 240.0), rng.uniform(1e-6, 120.0),
                             rng.uniform(0.0, 0.01)) for _ in range(200)]
    return drawn + [
        mz.make_mixture(0.02, 0.05, 0.01, 120.0, 15.0, 0.0005),
        mz.make_mixture(0.0, 0.02, 1.0, 240.0, 1e-6, 0.0),  # a Gaussian at the cap
        mz.DurationMixture(0.0, 0.02, 1.0, 400.0, 1e-3, 0.0, 0.0, 1.0, 0.0),  # no mass inside
    ]


class TestMixtureCdf:
    def test_weights_equal_scipys(self):
        for m in mixtures()[:-1]:
            total = sum(scipy_masses(m))
            assert (m.w_exp, m.w_gauss, m.w_unif) == tuple(v / total for v in scipy_masses(m))

    def test_cdf_and_sampled_pmf_equal_scipys(self):
        x = np.linspace(0.0, 250.0, 501)
        grid = np.arange(mz.DELTA_MIN_SUSTAINED, mz.DELTA_MAX + 1, 5)
        for m in mixtures():
            assert np.array_equal(m.cdf(x), scipy_cdf(m, x))
            upper, lower = scipy_cdf(m, grid + 2.5), scipy_cdf(m, grid - 2.5)
            probs = upper - lower
            probs[0], probs[-1] = upper[0], 1.0 - lower[-1]
            got_grid, got = mk.sampled_duration_pmf(m)
            assert np.array_equal(got_grid, grid) and np.array_equal(got, probs)
