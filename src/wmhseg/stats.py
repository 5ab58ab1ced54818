"""Paired statistics: Wilcoxon signed-rank test and Benjamini-Hochberg FDR."""

from __future__ import annotations

import numpy as np
from scipy.stats import false_discovery_control, rankdata, wilcoxon

from .errors import ContractError

EXACT_LIMIT = 25  # exact signed-rank distribution up to this many nonzero pairs
MIN_NONZERO = 6


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p by enumerating all sign assignments.

    Ranks may be midranks (half-integers from ties), so everything is
    doubled to stay integral; the distribution of 2*W+ is built by repeated
    polynomial convolution over the 2^n equally likely sign patterns.
    """
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[: total + 1 - r]
        dist = dist + shifted
    dist /= dist.sum()

    w2 = int(round(2 * w_plus))
    lower = dist[: w2 + 1].sum()
    upper = dist[w2:].sum()
    return float(min(1.0, 2.0 * min(lower, upper)))


def wilcoxon_signed_rank(differences) -> float:
    """Two-sided p-value for paired differences; zeros are dropped.

    Exact distribution for up to 25 nonzero pairs, enumerated here because
    scipy's exact mode is not exact under ties; beyond that scipy's normal
    approximation with tie correction.  All-zero input is undefined
    (returns NaN); fewer than 6 nonzero pairs is a contract error.
    """
    d = np.asarray(differences, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return float("nan")
    if n < MIN_NONZERO:
        raise ContractError(f"need at least {MIN_NONZERO} nonzero pairs, got {n}")
    if n > EXACT_LIMIT:
        return float(wilcoxon(d, method="approx").pvalue)
    ranks = rankdata(np.abs(d))
    return _exact_two_sided_p(ranks, float(ranks[d > 0].sum()))


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up FDR adjustment, returned in the original order.

    A NaN p-value (an undefined test) stays NaN, and the others are adjusted
    as if it were absent.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ContractError("p-values must lie in [0, 1]")
    defined = ~np.isnan(p)
    out = np.full(p.shape, np.nan)
    out[defined] = false_discovery_control(p[defined])
    return out
