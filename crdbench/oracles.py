"""Reference answers and result checks, independent of the ``repro`` package.

Oracles
-------
* Equicorrelated covariances ``Sigma = d I + s 11^T``: conditioning on the
  shared factor ``Z0`` makes the coordinates independent, so
  ``P(a <= X <= b) = E_z[prod_i Phi-mass((a_i - sqrt(s) z)/sqrt(d), ...)]``,
  a 1-D integral evaluated by the trapezoid rule in the log domain (so the
  answer stays exact far below the double range).  Boxes built from a few
  limit levels collapse the product to a few powers, which keeps it cheap.
* Diagonal covariances: an exact product of 1-D masses (in logs).

Both are checked against ``scipy.stats.multivariate_normal.cdf`` at
``n <= 5`` by :func:`oracle_self_test`.

Checks return ``None`` for a correct answer, else the name of the failure
kind; :data:`UNDERFLOW` is the known defect (``0.0`` for a box whose exact
probability is below the double range), every other kind is unexpected.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import log_ndtr, logsumexp

#: smallest positive normal double; estimates below it have underflowed
DBL_MIN = sys.float_info.min

#: width of the accepted band around the exact value, in reported errors
K_SIGMA = 6.0

#: relative slack for rounding when the reported error is ~0 (exact cases
#: such as a diagonal covariance sum their logs in another order)
FLOAT_RTOL = 1e-12


#: relative tolerance when a served answer is compared with a direct one
MATCH_RTOL = 1e-9

#: the known defect: 0.0 returned for a box whose exact probability is
#: below 1e-308 (see ROADMAP "no probability silently underflows")
UNDERFLOW = "underflow"

#: seed of the random boxes and covariances of :func:`oracle_self_test`
SELF_TEST_SEED = 7

#: absolute slack when a confidence function is held below the marginals.
#: The reported error understates the deviation of prefix probabilities
#: close to one: over 96 wind fields (seeds 1-8, 12 fields each), dense and
#: TLR, one field exceeded a marginal by 3.8e-5 at 10 reported errors and
#: no other exceeded it by more than 6; the slack is about 2.6 times that
#: largest excess
MARGINAL_SLACK = 1e-4

#: dense and TLR regions may differ only in cells whose confidence values
#: both lie within this distance of the level, and in at most this many
BORDER_BAND = 0.02
MAX_BORDER_CELLS = 5

_Z_GRID = np.linspace(-24.0, 24.0, 9601)
_LOG_PHI_GRID = -0.5 * _Z_GRID**2 - 0.5 * math.log(2.0 * math.pi)
_LOG_DZ = math.log(_Z_GRID[1] - _Z_GRID[0])


def _log_mass(lo, hi):
    """``log(Phi(hi) - Phi(lo))`` elementwise, stable in both tails."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    flip = lo > 0.0  # both limits in the upper tail: use the survival side
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    lb = log_ndtr(b)
    la = log_ndtr(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return lb + np.log1p(-np.exp(la - lb))


def _groups(a, b):
    pairs = np.stack([np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)], axis=1)
    unique, counts = np.unique(pairs, axis=0, return_counts=True)
    return unique[:, 0], unique[:, 1], counts


def log_prob_diagonal(a, b, variances) -> float:
    """Exact ``log P(a <= X <= b)`` for ``X ~ N(0, diag(variances))``."""
    sd = np.sqrt(np.asarray(variances, dtype=np.float64))
    return float(np.sum(_log_mass(np.asarray(a) / sd, np.asarray(b) / sd)))


def log_prob_equicorrelated(a, b, d: float, s: float) -> float:
    """``log P(a <= X <= b)`` for ``X ~ N(0, d I + s 11^T)`` (``d > 0``, ``s >= 0``)."""
    if s == 0.0:
        return log_prob_diagonal(a, b, np.full(len(a), d))
    lo, hi, counts = _groups(a, b)
    root_s, root_d = math.sqrt(s), math.sqrt(d)
    shift = root_s * _Z_GRID[None, :]
    log_terms = _log_mass((lo[:, None] - shift) / root_d, (hi[:, None] - shift) / root_d)
    log_integrand = _LOG_PHI_GRID + counts @ log_terms
    return float(logsumexp(log_integrand) + _LOG_DZ)


def oracle_self_test() -> list[str]:
    """Compare both oracles with SciPy at ``n <= 5``; returns the mismatches."""
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(SELF_TEST_SEED)
    problems = []
    for n in (2, 3, 5):
        for case in range(3):
            a = rng.uniform(-2.0, 0.5, n)
            b = a + rng.uniform(0.3, 2.5, n)
            d, s = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.8)
            variances = rng.uniform(0.5, 2.0, n)
            for name, cov, ours in (
                ("equicorrelated", d * np.eye(n) + s, log_prob_equicorrelated(a, b, d, s)),
                ("diagonal", np.diag(variances), log_prob_diagonal(a, b, variances)),
            ):
                dist = multivariate_normal(np.zeros(n), cov, abseps=1e-9, releps=1e-9, maxpts=400_000)
                ref = float(dist.cdf(b, lower_limit=a, rng=np.random.default_rng(case)))
                if not abs(math.exp(ours) - ref) <= 2e-6 + 1e-4 * ref:
                    problems.append(f"{name} n={n} case={case}: oracle {math.exp(ours):.8g} scipy {ref:.8g}")
    return problems


# -- checks -------------------------------------------------------------------------
def _details(result) -> dict:
    return getattr(result, "details", None) or {}


def _reported_log_probability(result):
    value = getattr(result, "log_probability", None)
    if value is None:
        value = _details(result).get("log_probability")
    return None if value is None else float(value)


def check_probability(result, log_true: float) -> str | None:
    """Check one probability answer against its exact log-probability."""
    if isinstance(result, BaseException):
        return "raised"
    p, err = float(result.probability), float(result.error)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0 and math.isfinite(err) and err >= 0.0):
        return "out-of-range"
    target_met = (_details(result).get("plan") or {}).get("target_met")
    log_p = _reported_log_probability(result)
    if log_p is not None and math.isfinite(log_true):
        # a log-domain answer is judged in the log domain
        rel = err / p if p > 0.0 else float(_details(result).get("log_error", 0.05))
        return None if abs(log_p - log_true) <= K_SIGMA * max(rel, 1e-12) + 1e-12 else "outside-error"
    if target_met is True and math.isfinite(log_true) and p < DBL_MIN:
        return "target-met-on-underflow"
    if p == 0.0 and math.isfinite(log_true):
        return UNDERFLOW if log_true < math.log(1e-308) else "zero-for-nonempty"
    true = math.exp(log_true) if math.isfinite(log_true) else 0.0
    if abs(p - true) > K_SIGMA * err + FLOAT_RTOL * true:
        return "outside-error"
    return None


def check_matches(result, reference) -> str | None:
    """A served answer must repeat the direct answer for the same seed."""
    if isinstance(result, BaseException):
        return "raised"
    p, ref = float(result.probability), float(reference.probability)
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        return "out-of-range"
    if abs(p - ref) > MATCH_RTOL * abs(ref):
        return "mismatch"
    return None


def check_regions(dense, tlr, alpha: float) -> str | None:
    """Dense and TLR detections of one field must agree up to border cells.

    Each confidence function must lie in ``[0, 1]`` and not exceed the
    marginal exceedance probabilities by more than its sampling error.
    Cells where the two ``1 - alpha`` regions differ are allowed only when
    both confidence values sit within :data:`BORDER_BAND` of the level, and
    at most :data:`MAX_BORDER_CELLS` of them.
    """
    for result in (dense, tlr):
        if isinstance(result, BaseException):
            return "raised"
        conf = np.asarray(result.confidence_function)
        if not (np.all(np.isfinite(conf)) and conf.min() >= 0.0 and conf.max() <= 1.0):
            return "out-of-range"
        err = np.empty_like(conf)
        err[result.order] = np.asarray(result.details["prefix_errors"])
        slack = K_SIGMA * err + MARGINAL_SLACK
        if np.any(conf > result.marginal_probabilities + slack):
            return "above-marginal"
    level = 1.0 - alpha
    fd, ft = np.asarray(dense.confidence_function), np.asarray(tlr.confidence_function)
    differ = (fd >= level) != (ft >= level)
    near = (np.abs(fd - level) <= BORDER_BAND) & (np.abs(ft - level) <= BORDER_BAND)
    if differ.sum() > MAX_BORDER_CELLS or np.any(differ & ~near):
        return "region-disagree"
    return None
