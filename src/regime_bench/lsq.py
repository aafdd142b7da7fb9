"""Bounded least squares and the normal CDF in numpy, bit for bit as scipy computes them.

``least_squares`` is scipy 1.17.1's trust-region reflective method
(``least_squares(method='trf')``; M. A. Branch, T. F. Coleman and Y. Li,
SIAM J. Sci. Comput. 21(1), 1999) on the one call shape that
``missingness.fit_duration_density`` makes: bounds on every variable, a
2-point forward-difference Jacobian whose steps turn back at a bound, linear
loss, ``x_scale`` 1, the exact trust-region solver (one SVD per iteration),
the default tolerances of 1e-8 and a given ``max_nfev``. Only that path of
scipy's ``trf_bounds`` is kept, and each step runs in scipy's order on
arrays of scipy's memory layout, so x, the residuals and the status equal
scipy's to the last bit.

The layout is the trap: ``np.linalg.svd`` returns C-ordered ``U`` and
``Vt`` where ``scipy.linalg.svd`` returns Fortran-ordered ones. Their values
are the same, but ``U.T.dot`` and ``V.dot`` then sum in another order, and
the fit drifts in the last bits. So both are made Fortran-ordered here, and
the Jacobian is built transposed, shape (n, m), and used as its ``.T``, as
scipy's ``_dense_difference`` does.

``ndtr`` is the standard normal CDF of S. L. Moshier's Cephes library, with
its rational approximations of erf and erfc, as ``scipy.special.ndtr``
evaluates it: per element, with ``math.exp`` (``np.exp`` rounds
differently).
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
FTOL = XTOL = GTOL = 1e-8


def _norm(x):
    """np.linalg.norm of a vector, the same sqrt(x.dot(x)) without its checks."""
    return np.sqrt(x.dot(x))


def least_squares(fun, x0, lb, ub, max_nfev):
    """Minimize 0.5 * ||fun(x)||**2 subject to lb <= x <= ub, from x0 within the bounds.

    Returns (x, fun(x), status), with scipy's status: 0 when ``max_nfev``
    evaluations ran out, 1 for the gradient tolerance, 2 for the cost
    tolerance, 3 for the step tolerance and 4 for both of the last two.
    """
    x0, lb, ub = (np.array(v, dtype=float) for v in (x0, lb, ub))
    if not np.all((x0 >= lb) & (x0 <= ub)):
        raise ValueError("Initial guess is outside of provided bounds")
    x = _strictly_feasible(x0, lb, ub, rstep=1e-10)
    f = fun(x)
    J = _jacobian(fun, x, f, lb, ub)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, _ = _scaling_vector(x, g, lb, ub)
    Delta = _norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    nfev = 1
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = np.abs(g * v).max()
        if g_norm < GTOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # the problem in the scaled ("hat") variables
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, Vt = np.linalg.svd(J_augmented, full_matrices=False)
        V = np.asfortranarray(Vt).T
        uf = np.asfortranarray(U).T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # how far a step stays back from a bound
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, d * p_h, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_radius(Delta, actual_reduction, predicted_reduction,
                                              step_h_norm, step_h_norm > 0.95 * Delta)
            status = _termination(actual_reduction, cost, _norm(step), _norm(x), ratio)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return x, f, 0 if status is None else status


def _jacobian(fun, x0, f0, lb, ub):
    """Forward differences, each step turned back, or cut, where it would leave the bounds."""
    h = EPS**0.5 * ((x0 >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x0))
    lower_dist, upper_dist = x0 - lb, ub - x0
    x = x0 + h
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[((x < lb) | (x > ub)) & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = x0.copy()
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (fun(x1) - f0) / ((x0[i] + h[i]) - x0[i])
    return J_transposed.T


def _strictly_feasible(x, lb, ub, rstep):
    """x moved at least rstep (relative) inside its bounds; with rstep 0, one ulp inside."""
    x_new = x.copy()
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist, upper_dist = x - lb, ub - x
        upper = np.isfinite(ub) & (
            upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub))))
        lower = np.isfinite(lb) & (
            lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb)))) & ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling: the distance to the bound the descent direction points at, and its sign."""
    upper = (g < 0) & np.isfinite(ub)
    lower = (g > 0) & np.isfinite(lb)
    v = np.where(lower, x - lb, np.where(upper, ub - x, 1.0))
    return v, lower.astype(float) - upper


def _trust_region_step(n, m, uf, s, V, Delta, alpha):
    """More's (1977) solution of the trust-region subproblem from one SVD; returns (p, alpha).

    Up to 10 Newton steps on alpha, until ||p|| is within 1% of Delta.
    """
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / _norm(p)  # onto the trust-region boundary
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step cut at the bounds, its reflection and the Cauchy step."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta  # strictly inside the bounds
    p_h *= theta
    p_value = _quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _step_to_bound(x, s, lb, ub):
    """The smallest t >= 0 that puts x + s*t on a bound, and which bounds it hits (-1, 0, 1)."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _intersect_trust_region(x, s, Delta):
    """The roots t of ||x + s*t|| = Delta, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + math.copysign(d, b))  # no cancellation, as in Numerical Recipes
    t1, t2 = q / a, c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _quadratic(J, g, s, diag):
    """0.5 * s.T (J.T J + diag) s + g.T s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _quadratic_1d(J, g, s, diag, s0=None):
    """The coefficients (a, b[, c]) of _quadratic along s0 + s*t, as a*t**2 + b*t + c."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """The minimum (t, value) of a*t**2 + b*t + c over lb <= t <= ub."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _update_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next trust-region radius, and the ratio of actual to predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    else:
        ratio = 1 if predicted_reduction == actual_reduction == 0 else 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio):
    """The status once the cost or the step is small enough, else None."""
    ftol = dF < FTOL * F and ratio > 0.25
    xtol = dx_norm < XTOL * (XTOL + x_norm)
    return 4 if ftol and xtol else 2 if ftol else 3 if xtol else None


# Cephes ndtr.c: erfc on [1, 8) as P/Q, on [8, inf) as R/S; erf on [0, 1] as x*T/U. Q, S
# and U lead with the 1 that Cephes' p1evl implies: 1.0*x + c is x + c, bit for bit
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
MAXLOG = 7.09782712893383996843e2  # log of the largest double
SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """The polynomial with coefficients coef, highest power first, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x):
    """erfc for x >= 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -MAXLOG:
        return 0.0  # underflow
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _P)) / _polevl(x, _Q)
    return (z * _polevl(x, _R)) / _polevl(x, _S)


def _ndtr(a):
    x = a * SQRT1_2  # a NaN fails every comparison below and comes out of _erfc as NaN
    z = abs(x)
    if z < SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(x):
    """The standard normal CDF of a float or of each element of an array."""
    a = np.asarray(x, dtype=float)
    out = np.array([_ndtr(v) for v in a.ravel().tolist()], dtype=float).reshape(a.shape)
    return out[()] if out.ndim == 0 else out
