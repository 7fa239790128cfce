import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Frozen seed of the random well family used by the property and acceptance
# tests; changing it invalidates nothing but the wells themselves.
WELL_FAMILY_SEED = 20240811
WELL_FAMILY_SIZE = 20


def random_well_family(n_members=WELL_FAMILY_SIZE, seed=WELL_FAMILY_SEED):
    """(depth, center, width) triples for each member, 1-3 wells apiece."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(n_members):
        count = int(rng.integers(1, 4))
        family.append(
            [
                (
                    float(rng.uniform(0.1, 30.0)),
                    float(rng.uniform(-2.0, 2.0)),
                    float(rng.uniform(0.2, 3.0)),
                )
                for _ in range(count)
            ]
        )
    return family


@pytest.fixture(scope="session")
def well_family():
    """One analysis object per family member, shared across the session so
    the expensive derived data is computed once."""
    from levlab.potentials import gaussian_wells
    from levlab.scattering import PotentialAnalysis

    return [PotentialAnalysis(gaussian_wells(w)) for w in random_well_family()]


@pytest.fixture
def wound_paths(monkeypatch):
    """Every path handed to ``loops.winding`` during the test, in call order.
    Only a point interaction's momentum side B2 is sampled: ``verify_levinson``
    calls ``winding`` through the ``loops`` module, once per report."""
    from levlab import loops

    seen = []
    wind = loops.winding

    def capture(path, *args, **kwargs):
        seen.append(path)
        return wind(path, *args, **kwargs)

    monkeypatch.setattr(loops, "winding", capture)
    return seen
