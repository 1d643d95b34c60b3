"""Samplers and log densities for the distribution families used by the Gibbs blocks.

Inverse-Gamma specs follow the (nu, tau) convention: IG(nu/2, tau/2) with
density proportional to x^-(nu/2+1) exp(-tau/(2x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sparsepanel.rng import as_generator, draw_each


class ParameterDomainError(ValueError):
    """A distribution parameter is outside its valid domain."""


class MatrixDomainError(ValueError):
    """A matrix argument is not symmetric / positive definite as required."""


@dataclass(frozen=True)
class InverseGammaSpec:
    """IG(nu/2, tau/2). Mean tau/(nu-2) for nu > 2; variance exists for nu > 4."""

    nu: float
    tau: float

    def __post_init__(self):
        if not (self.nu > 0 and self.tau > 0):
            raise ParameterDomainError(f"inverse-gamma requires nu, tau > 0, got ({self.nu}, {self.tau})")

    @property
    def mean(self) -> float:
        if self.nu <= 2:
            raise ParameterDomainError(f"IG mean undefined for nu={self.nu} <= 2")
        return self.tau / (self.nu - 2.0)

    @property
    def variance(self) -> float:
        if self.nu <= 4:
            raise ParameterDomainError(f"IG variance undefined for nu={self.nu} <= 4")
        a = self.nu / 2.0
        b = self.tau / 2.0
        return b * b / ((a - 1.0) ** 2 * (a - 2.0))

    def draw(self, rng, size=None):
        return sample_inverse_gamma(self.nu, self.tau, rng, size)


@dataclass(frozen=True)
class InverseWishartSpec:
    dof: float
    scale: np.ndarray

    def __post_init__(self):
        scale = np.atleast_2d(np.asarray(self.scale, dtype=float))
        object.__setattr__(self, "scale", scale)
        d = scale.shape[0]
        if scale.shape != (d, d) or not np.allclose(scale, scale.T):
            raise MatrixDomainError("inverse-Wishart scale must be a symmetric matrix")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise MatrixDomainError("inverse-Wishart scale must be positive definite") from exc
        if not self.dof > d - 1:
            raise ParameterDomainError(f"inverse-Wishart dof must exceed dim-1={d - 1}, got {self.dof}")

    @property
    def mean(self) -> np.ndarray:
        d = self.scale.shape[0]
        if self.dof <= d + 1:
            raise ParameterDomainError("IW mean requires dof > dim + 1")
        return self.scale / (self.dof - d - 1.0)


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(center, scale^2) truncated to (lower_bound, inf)."""

    center: float
    lower_bound: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ParameterDomainError(f"truncated normal requires scale > 0, got {self.scale}")


def ig_spec_from_variance(v: float) -> InverseGammaSpec:
    """Spec of the unit-mean inverse gamma with variance v: nu = 2/v + 4, tau = 2/v + 2."""
    if not v > 0:
        raise ParameterDomainError(f"variance must be positive, got {v}")
    return InverseGammaSpec(nu=2.0 / v + 4.0, tau=2.0 / v + 2.0)


def sample_inverse_gamma(nu, tau, rng, size=None):
    """Draw from IG(nu/2, tau/2), nu and tau broadcasting, via the reciprocal of a
    Gamma draw; given R generators (`rng.draw_each`), each draws its own row."""
    if isinstance(rng, list):
        return draw_each(rng, lambda gen, n, t: 1.0 / gen.gamma(n / 2.0, 2.0 / t),
                         *np.broadcast_arrays(nu, tau))
    return 1.0 / as_generator(rng).gamma(nu / 2.0, 2.0 / tau, size)


def sample_beta(a: float, b: float, rng, size=None):
    if not (a > 0 and b > 0):
        raise ParameterDomainError(f"beta requires a, b > 0, got ({a}, {b})")
    gen = as_generator(rng)
    # Two-Gamma construction keeps the draw path uniform across backends.
    x = gen.gamma(shape=a, scale=1.0, size=size)
    y = gen.gamma(shape=b, scale=1.0, size=size)
    return x / (x + y)


def _close(x: float, y: float) -> bool:
    """np.isclose(x, y, rtol=1e-8, atol=1e-12) on Python floats."""
    return x == y or (abs(x - y) <= 1e-12 + 1e-8 * abs(y) and math.isfinite(y))


def _is_symmetric(cov: np.ndarray) -> bool:
    """np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12); for k <= 2 on Python floats."""
    if cov.shape[0] > 2:
        return np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12)
    m = cov.tolist()  # for k = 1, a, b, c and d are all m[0][0]
    (a, b), (c, d) = (m[0][0], m[0][-1]), (m[-1][0], m[-1][-1])
    return _close(a, a) and _close(d, d) and _close(b, c) and _close(c, b)


def _cholesky(cov: np.ndarray, bump: float):
    """Lower Cholesky factor of cov + bump * I, or None if not PD; a closed form for k <= 2."""
    k = cov.shape[0]
    if k > 2:
        try:
            return np.linalg.cholesky(cov + bump * np.eye(k))
        except np.linalg.LinAlgError:
            return None
    c = cov.tolist()
    a11 = c[0][0] + bump
    if not a11 > 0:
        return None
    l11 = math.sqrt(a11)
    if k == 1:
        return np.array([[l11]])
    l21 = c[1][0] * (1.0 / l11)  # LAPACK's order of operations
    a22 = c[1][1] + bump - l21 * l21
    if not a22 > 0:
        return None
    return np.array([[l11, 0.0], [l21, math.sqrt(a22)]])


def _inv(m: np.ndarray) -> np.ndarray:
    """Matrix inverse; the closed form for a nonsingular k <= 2, LAPACK otherwise.
    A batch (B, k, k) takes one LAPACK call, or for k = 2 the same closed form."""
    if m.ndim == 3:
        if m.shape[1:] == (2, 2):
            a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
            det = a * d - b * c
            if det.all():
                return np.stack([d / det, -b / det, -c / det, a / det], axis=-1).reshape(-1, 2, 2)
        return np.linalg.inv(m)
    k = m.shape[0]
    if k == 1 and m[0, 0] != 0:
        return 1.0 / m
    if k == 2:
        (a, b), (c, d) = m.tolist()
        det = a * d - b * c
        if det != 0:
            return np.array([[d / det, -b / det], [-c / det, a / det]])
    return np.linalg.inv(m)


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); exactly 0 and 1 at -inf and +inf, NaN passes through."""
    e = np.exp(-np.abs(x))  # in [0, 1], so nothing overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


_SQRT1_2 = math.sqrt(0.5)  # x / sqrt(2) as x * _SQRT1_2, the rounding scipy and Cephes use


def ndtr(x: float) -> float:
    """Standard normal CDF of a scalar."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def log_ndtr(x: float) -> float:
    """Log of the standard normal CDF of a scalar; accurate in the upper tail, where
    1 - Phi(x) = erfc(x / sqrt 2) / 2 is tiny, and down to x = -37."""
    if x > 0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    return math.log(ndtr(x))


# Wichura (1988), Algorithm AS 241 (PPND16), Applied Statistics 37:477-484:
# numerator and denominator coefficients, highest power first, of the rational
# approximations in the central region |p - 1/2| <= 0.425, in the tail with
# r = sqrt(-log(min(p, 1 - p))) <= 5, and in the tail beyond.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(c, r):
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return ((((((c0 * r + c1) * r + c2) * r + c3) * r + c4) * r + c5) * r + c6) * r + c7


def _rational(coefs, r):
    """Ratio of two degree-7 polynomials in r; r is a float or an array."""
    return _horner(coefs[0], r) / _horner(coefs[1], r)


def ndtri(p):
    """Standard normal quantile (AS 241, relative error about 1e-16): pure `math`
    for a float, numpy for an array. Gives -inf at 0, +inf at 1, NaN outside."""
    if isinstance(p, float):  # numpy's float64 scalars included
        return _ndtri_scalar(float(p))
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    x = np.full(p.shape, np.nan)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central & (p > 0.0) & (p < 1.0)
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    x[tail] = np.copysign(
        np.where(r <= 5.0, _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0)), q[tail]
    )
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    return x


def _ndtri_scalar(p: float) -> float:
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    r = math.sqrt(-math.log(min(p, 1.0 - p)))
    x = _rational(_AS241_NEAR, r - 1.6) if r <= 5.0 else _rational(_AS241_FAR, r - 5.0)
    return math.copysign(x, q)


def _chol_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor, adding a tiny diagonal jitter up to 3 times on failure."""
    cov = np.asarray(cov, dtype=float)
    if not _is_symmetric(cov):
        raise MatrixDomainError("covariance must be symmetric")
    for attempt in range(4):
        chol = _cholesky(cov, attempt and 1e-10 * cov.trace() / cov.shape[0] * 10 ** (attempt - 1))
        if chol is not None:
            return chol
    raise MatrixDomainError("covariance not positive definite even after jitter")


def sample_mv_normal(mean, cov, rng, size=None):
    """Multivariate normal draw; degenerate (all-zero) covariance returns the mean.

    With a leading batch axis, mean (B, k) and cov (B, k, k), it returns one
    draw per element, (B, k), consuming the generator as a loop of single
    draws over the elements would, or each element's own from a list of B
    (`rng.draw_each`); `size` applies to single draws only.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.ndim == 3 and size is None:
        return _sample_mv_normal_batch(mean, cov, rng)
    gen = as_generator(rng)
    if cov.shape != (mean.size, mean.size):
        raise MatrixDomainError(f"cov shape {cov.shape} does not match mean length {mean.size}")
    if not np.count_nonzero(cov):
        if size is None:
            return mean.copy()
        return np.broadcast_to(mean, (size, mean.size)).copy()
    chol = _chol_with_jitter(cov)
    shape = (mean.size,) if size is None else (size, mean.size)
    z = gen.standard_normal(shape)
    return mean + z @ chol.T


def _sample_mv_normal_batch(mean, cov, rng):
    if cov.shape != mean.shape + mean.shape[-1:]:
        raise MatrixDomainError(f"cov shape {cov.shape} does not match mean shape {mean.shape}")
    # One LAPACK factorisation for the batch. An element that is not exactly
    # symmetric and positive definite (all-zero, in need of jitter, or not
    # finite) sends the batch through single draws, element by element, which
    # draw as the batch does. Given its own generator, a non-finite element
    # draws NaN: a replication that went non-finite fails alone.
    try:
        chol = np.linalg.cholesky(cov) if (cov == cov.swapaxes(1, 2)).all() else None
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None:
        z = draw_each(rng, lambda gen, m: gen.standard_normal(m.shape), mean)
        return mean + (chol @ z[:, :, None])[:, :, 0]
    own = isinstance(rng, list)
    gens = rng if own else [as_generator(rng)] * len(mean)
    draws = [m * np.nan if own and not np.isfinite(c).all() else sample_mv_normal(m, c, gen)
             for m, c, gen in zip(mean, cov, gens)]
    return np.array(draws).reshape(mean.shape)


def sample_inverse_wishart(dof: float, scale: np.ndarray, rng, size=None):
    """IW(dof, scale) draw L L', L = C A^-1, for SPD scale = C C' (a conjugate posterior's is).

    A is lower triangular with A_ii^2 ~ chi2(dof - k + 1 + i) and A_ij ~ N(0, 1)
    below the diagonal: the Bartlett factor (Smith & Hocking 1972) in reversed
    order. One draw uses the generator as scipy's invwishart.rvs does.
    """
    gen = as_generator(rng)
    chol = _cholesky(np.asarray(scale, dtype=float), 0.0)
    if chol is None:
        raise MatrixDomainError("inverse-Wishart scale must be positive definite")
    k = chol.shape[0]
    n = 1 if size is None else size
    a = np.zeros((n, k, k))
    for i in range(1, k):
        a[:, i, :i] = gen.standard_normal((n, i))
    for i in range(k):
        a[:, i, i] = np.sqrt(gen.chisquare(dof - k + 1 + i, size=n))
    lower = chol @ np.linalg.inv(a)
    draw = lower @ lower.swapaxes(1, 2)
    return draw[0] if size is None else draw


def sample_truncated_normal(spec: TruncatedNormalSpec, rng, size=None):
    """Inverse-CDF draw from N(center, scale^2) restricted to (lower_bound, inf)."""
    gen = as_generator(rng)
    a = (spec.lower_bound - spec.center) / spec.scale
    lo = ndtr(a)
    u = gen.random(size=size)
    # Map U(0,1) into the surviving CDF mass; the clip guards the open support.
    # minimum(maximum()) is np.clip at a fraction of its cost on a scalar, and
    # the RWMH step draws a scalar every sweep.
    p = np.minimum(np.maximum(lo + u * (1.0 - lo), math.nextafter(lo, 1.0)), math.nextafter(1.0, 0.0))
    draw = spec.center + spec.scale * ndtri(p)
    return np.maximum(draw, math.nextafter(spec.lower_bound, math.inf))
