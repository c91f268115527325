"""Acquisition values, elementwise on arrays of posterior means and variances.

Both formulas use the posterior standard deviation s = sqrt(variance):

    EI  = (y_min - mean) Phi(z) + s phi(z),  z = (y_min - mean) / s
    PF  = Phi((mean - c) / s)

with the degenerate s = 0 limits max(0, y_min - mean) and the 0/1 indicator.
`run_cbo` scores its pool by EI * PF, or by PF alone while no feasible point
is known.
"""

from __future__ import annotations

import numpy as np

# scipy.special loads at the first call, through scipy's lazy attributes
import scipy

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def ei_values(means, variances, y_min: float) -> np.ndarray:
    """Expected improvement over y_min, elementwise on arrays."""
    means = np.asarray(means, dtype=float)
    s = np.sqrt(np.maximum(np.asarray(variances, dtype=float), 0.0))
    gain = y_min - means
    out = np.maximum(gain, 0.0)  # s == 0 limit
    pos = s > 0.0
    if np.any(pos):
        z = gain[pos] / s[pos]
        out[pos] = gain[pos] * scipy.special.ndtr(z) + s[pos] * _phi(z)
    return np.maximum(out, 0.0)


def pf_values(means, variances, threshold: float) -> np.ndarray:
    """Probability that the constraint output meets its threshold."""
    means = np.asarray(means, dtype=float)
    s = np.sqrt(np.maximum(np.asarray(variances, dtype=float), 0.0))
    out = (means >= threshold).astype(float)  # s == 0 limit
    pos = s > 0.0
    if np.any(pos):
        out[pos] = scipy.special.ndtr((means[pos] - threshold) / s[pos])
    return out
