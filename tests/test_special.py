"""The numpy and `math` forms of the special functions the samplers use, against
scipy.special on grids that reach into the tails.

The package imports no scipy at run time; scipy stays the oracle here.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import special

from sparsepanel.blocks import _log_odds_prior, update_indicator_and_deviation_ig
from sparsepanel.distributions import expit, log_ndtr, ndtr, ndtri
from sparsepanel.rng import RngStream

SRC = Path(__file__).resolve().parents[1] / "src"


def rel_err(got, ref):
    return np.abs(np.asarray(got) - ref) / np.abs(ref)


def test_ndtri_matches_scipy_from_1e_300_to_1_minus_1e_16():
    p = np.concatenate([np.logspace(-300, -1, 3000), np.linspace(0.05, 0.95, 1801),
                        1.0 - np.logspace(-16, -1, 1500)])
    got = ndtri(p)
    assert np.max(rel_err(got, special.ndtri(p))) < 1e-14
    # the float branch is the same arithmetic in `math`
    assert np.array_equal([ndtri(float(v)) for v in p], got)


def test_ndtri_edges_match_scipy():
    edges = np.array([0.0, 1.0, 0.5, -0.25, 1.25, np.nan])
    np.testing.assert_array_equal(ndtri(edges), special.ndtri(edges))
    np.testing.assert_array_equal([ndtri(float(v)) for v in edges], special.ndtri(edges))


def test_expit_matches_scipy_and_is_exact_at_the_infinities():
    x = np.linspace(-700.0, 700.0, 200_001)
    assert np.max(rel_err(expit(x), special.expit(x))) < 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = expit(np.array([-np.inf, np.inf, np.nan, -1e308, 1e308]))
    np.testing.assert_array_equal(ends, [0.0, 1.0, np.nan, 0.0, 1.0])


def test_expit_copysign_form_is_bit_identical_to_the_abs_form():
    """`expit` takes exp(copysign(x, -1)) for exp(-|x|): one pass fewer, same bits."""
    grid = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 700.0, -700.0,
         5e-324, -5e-324, 1e308, -1e308],
        np.linspace(-750.0, 750.0, 30_001),
        np.random.default_rng(0).standard_normal(10_000) * 40.0,
    ])
    e = np.exp(-np.abs(grid))
    abs_form = np.where(grid >= 0, 1.0, e) / (1.0 + e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(grid)
    np.testing.assert_array_equal(got.view(np.uint64), abs_form.view(np.uint64))


def test_ndtr_matches_scipy_down_to_minus_37():
    # In the lower tail erfc's relative condition number is about x^2, so
    # rounding x / sqrt(2) alone moves the last ~x^2 ulps: 1e-13, not 1e-14.
    x = np.linspace(-37.0, 8.0, 9001)
    assert max(rel_err(ndtr(v), special.ndtr(v)) for v in x) < 1e-13


def test_log_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(1e-8, 30.0, 6001), np.linspace(-37.0, 0.0, 3701)])
    assert max(rel_err(log_ndtr(v), special.log_ndtr(v)) for v in x) < 1e-13


def test_lgamma_matches_gammaln():
    x = np.concatenate([np.linspace(1e-3, 60.0, 60_001), np.linspace(60.0, 2000.0, 2001)])
    got = np.array([math.lgamma(v) for v in x])
    assert np.max(np.abs(got - special.gammaln(x)) / np.maximum(1.0, np.abs(got))) < 4e-15


def test_indicator_odds_from_the_lgamma_table_match_gammaln():
    # The block reads lgamma(a + n/2) from a table indexed by the integer
    # counts; on one generator state it must draw what the gammaln form draws.
    n = 4000
    gen = np.random.default_rng(3)
    counts = gen.integers(0, 25, size=n)
    ssr = gen.uniform(0.2, 2.0, size=n) * np.maximum(counts, 1)
    q, v = 0.4, 0.7
    z, delta = update_indicator_and_deviation_ig(q, v, ssr, counts, RngStream(9, 0))

    inv_v = 1.0 / v
    nu_bar = 2.0 * inv_v + 4.0 + counts
    tau_bar = 2.0 * inv_v + 2.0 + ssr
    log_k = (_log_odds_prior(q) + special.gammaln(nu_bar / 2.0) - special.gammaln(inv_v + 2.0)
             + (inv_v + 2.0) * np.log(inv_v + 1.0) - (nu_bar / 2.0) * np.log(tau_bar / 2.0)
             + ssr / 2.0)
    ref_gen = RngStream(9, 0).generator
    z_ref = (ref_gen.random(n) < special.expit(log_k)).astype(np.int64)
    g = ref_gen.gamma(shape=nu_bar / 2.0, scale=2.0 / tau_bar)
    assert 0 < z.sum() < n
    np.testing.assert_array_equal(z, z_ref)
    np.testing.assert_array_equal(delta, np.where(z_ref == 1, 1.0 / g, 1.0))


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(SRC)}:{node.lineno}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []
