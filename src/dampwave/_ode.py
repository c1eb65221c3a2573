"""Vectorized adaptive Cash-Karp 5(4) integrator.

Integrates a batch of independent ODE systems sharing one scalar variable
``x``; the step size is controlled by the worst per-component error, so
easy batch members ride along with the hardest one.  State is a complex or
real ndarray of any shape.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationFailureError

# Cash-Karp tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def integrate_batch(rhs, x0, x1, y0, rtol=1e-10, atol=1e-12, max_steps=4_000_000):
    """Advance ``y' = rhs(x, y)`` from x0 to x1 (x1 > x0).

    Returns the state at x1.  Raises IntegrationFailureError on step-size
    underflow or step-count exhaustion.
    """
    span = x1 - x0
    y = np.array(y0, copy=True)
    x = x0
    f0 = rhs(x, y)
    scale0 = atol + rtol * np.max(np.abs(y))
    h = min(span, 0.1 * scale0 / (np.max(np.abs(f0)) + 1e-30), span * 1e-3 + 1e-12)
    h = max(h, span * 1e-12)
    steps = 0
    while x < x1:
        h = min(h, x1 - x)
        if h <= abs(x) * 1e-15 + 1e-290:
            raise IntegrationFailureError(f"step size underflow at x={x!r}")
        k = [rhs(x, y)]
        for i in range(1, 6):
            yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
            k.append(rhs(x + _C[i] * h, yi))
        y5 = y + h * sum(b * ki for b, ki in zip(_B5, k) if b != 0.0)
        y4 = y + h * sum(b * ki for b, ki in zip(_B4, k))
        err = np.abs(y5 - y4)
        tol = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        ratio = np.max(err / tol)
        if ratio <= 1.0:
            x += h
            y = y5
        grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
        h *= min(5.0, max(0.2, grow))
        steps += 1
        if steps > max_steps:
            raise IntegrationFailureError("step budget exhausted")
    return y
