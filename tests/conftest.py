"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def bessel_points(monkeypatch):
    """Count the argument points (index 0) and the calls (index 1) of every
    Bessel evaluation in multipliers."""
    from dampwave import multipliers

    count = [0, 0]
    for name in ("_jy", "jy_extended"):
        fn = getattr(multipliers, name)

        def counted(nu, tau, fn=fn):
            count[0] += np.size(tau)
            count[1] += 1
            return fn(nu, tau)

        monkeypatch.setattr(multipliers, name, counted)
    return count
