from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from cohesive_transport import (ControllerConfig, ScenarioConfig,
                                StiffnessChain, TrajectorySpec,
                                build_pinned_laplacian, dynamics, simulate)

DT = 0.03

# `pytest --hypothesis-profile ci`: more examples for the property tests that
# take their count from the profile, the tuner's retry-loop oracles among them
settings.register_profile("ci", max_examples=400, deadline=None)


def step_counts(monkeypatch):
    """Calls of each step function from here on, counted by a wrapper."""
    counts = Counter()
    for name in ("step_baseline", "step_dsr"):
        def counted(*args, _step=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _step(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counted)
    return counts


@pytest.fixture(scope="session")
def chain4():
    """Four-robot reference chain: uniform 0.05 N/cm springs, robot 0
    pinned to the virtual source with the same stiffness."""
    return StiffnessChain(neighbor_stiffness=(0.05, 0.05, 0.05),
                          leader_stiffness=(0.05, 0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def lap4(chain4):
    return build_pinned_laplacian(chain4)


def unit_step_scenario(chain, controller, duration=20.0):
    return ScenarioConfig(network=chain, controller=controller,
                          trajectory=TrajectorySpec(kind="step", amplitude=1.0),
                          duration=duration)


@pytest.fixture(scope="session")
def baseline_step_trace(chain4):
    """Unit step under the reference baseline gain."""
    return simulate(unit_step_scenario(chain4, ControllerConfig.baseline(1.93, DT)))


@pytest.fixture(scope="session")
def dsr_step_trace(chain4):
    """Unit step under the reference cohesive gains."""
    return simulate(unit_step_scenario(chain4, ControllerConfig.dsr(0.39, 10.92, DT)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
