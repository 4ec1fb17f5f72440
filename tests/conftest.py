import numpy as np
import pytest

from malthus import age_model
from malthus.age_model import TabulatedRate, TruncatedGaussian

# exact moments of the 0.7-sd Gaussian restricted to [0, 2]
TG_CV = 0.502276628916061


@pytest.fixture(scope="session")
def tg():
    return TruncatedGaussian(0.0, 2.0, 0.7)


def witness_rate() -> TabulatedRate:
    """Hazard whose division-age density is 2a on [0, 1].

    B(a) = 2a/(1 - a^2), tabulated on a grid that refines geometrically
    toward the blow-up at 1; the mass past the last node (2e-4) is kept
    as a terminal atom.
    """
    a = np.unique(1.0 - np.geomspace(1.0, 1e-4, 1201))
    return TabulatedRate(a, 2.0 * a / (1.0 - a * a))


def general_resolvent(*args, **kwargs):
    """The (H, H') closure that ``malthus_general(*args, **kwargs)`` hands
    to the root finder."""
    got = []
    solve = age_model.find_root_decreasing
    age_model.find_root_decreasing = lambda h, *rest: got.append(h) or 0.0
    try:
        age_model.malthus_general(*args, **kwargs)
    finally:
        age_model.find_root_decreasing = solve
    return got[0]
