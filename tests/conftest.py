"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def bessel_points(monkeypatch):
    """Count the argument points (index 0) and the calls (index 1) of every
    Bessel evaluation in multipliers, and the points of its longdouble
    (``jy_extended``) calls among them (index 2)."""
    from dampwave import multipliers

    count = [0, 0, 0]
    for name, extended in (("_jy", 0), ("jy_extended", 1)):
        fn = getattr(multipliers, name)

        def counted(nu, tau, fn=fn, extended=extended):
            count[0] += np.size(tau)
            count[1] += 1
            count[2] += extended * np.size(tau)
            return fn(nu, tau)

        monkeypatch.setattr(multipliers, name, counted)
    return count
