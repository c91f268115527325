"""Closed-form validation problem: quadratic deformation and cure surfaces.

Both responses are full quadratics in the normalized pair (t, T) on the unit
square; the constraint is a minimum final degree of cure of 0.995. The
coefficient order is (t^2, t*T, t, T^2, T, 1).
"""

from __future__ import annotations

U_COEFFS = (-0.1272, -0.1698, 0.2914, 0.2329, -0.0841, 1.8646)
DOC_COEFFS = (-0.0458, 0.0801, -0.0265, -0.0376, 0.0329, 0.9902)
DOC_THRESHOLD = 0.995


def quad_surface(coeffs, t, T):
    """Evaluate c0 t^2 + c1 tT + c2 t + c3 T^2 + c4 T + c5 (array-friendly)."""
    c0, c1, c2, c3, c4, c5 = coeffs
    return c0 * t * t + c1 * t * T + c2 * t + c3 * T * T + c4 * T + c5
