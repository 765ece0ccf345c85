from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cohesive_transport import (CouplingNetwork, ScenarioConfig, TrajectorySpec,
                                build_pinned_laplacian, dynamics, load_config, simulate)

DT = 0.03

# the bundled chain4 reference configs, through the checkout's configs/ link
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# `pytest --hypothesis-profile ci`: more examples for the property tests that
# take their count from the profile, the tuner's retry-loop oracles among them
settings.register_profile("ci", max_examples=400, deadline=None)


def step_counts(monkeypatch):
    """Samples stepped from here on, by route: one per call of each public
    step function (a single run of a small network, or a state stepped by
    hand), and under "block" each sample of the blocks that ``dynamics._run``
    steps and checks at once (batches and larger networks)."""
    counts = Counter()
    for name in ("step_baseline", "step_dsr"):
        def counted(*args, _step=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _step(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counted)

    def checked(stacked, local, first, _check=dynamics._check_block):
        counts["block"] += len(stacked)
        return _check(stacked, local, first)
    monkeypatch.setattr(dynamics, "_check_block", checked)
    return counts


def grid_network(side, seed):
    """side x side mesh, seeded stiffnesses in [0.03, 0.07] N/cm and a
    few leaders at 0.05 N/cm; at side 8 and seed 1, the network of the
    benchmark's mesh64-transport workload."""
    rng = np.random.default_rng(seed)
    couplings = {}
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                couplings[(k, k + 1)] = float(rng.uniform(0.03, 0.07))
            if r + 1 < side:
                couplings[(k, k + side)] = float(rng.uniform(0.03, 0.07))
    leaders = [0.0] * (side * side)
    for k in rng.choice(side * side, size=4, replace=False):
        leaders[int(k)] = 0.05
    return CouplingNetwork(side * side, couplings, tuple(leaders))


@pytest.fixture(scope="session")
def chain4():
    """The bundled configs' four-robot reference chain."""
    return load_config(CONFIG_DIR / "chain4_baseline.cfg").network


@pytest.fixture(scope="session")
def lap4(chain4):
    return build_pinned_laplacian(chain4)


def unit_step_scenario(chain, controller, duration=20.0):
    return ScenarioConfig(network=chain, controller=controller,
                          trajectory=TrajectorySpec(kind="step", amplitude=1.0),
                          duration=duration)


@pytest.fixture(scope="session")
def baseline_step_trace(chain4):
    """Unit step under the bundled baseline gain."""
    controller = load_config(CONFIG_DIR / "chain4_baseline.cfg").controller
    return simulate(unit_step_scenario(chain4, controller))


@pytest.fixture(scope="session")
def dsr_step_trace(chain4):
    """Unit step under the bundled cohesive gains."""
    controller = load_config(CONFIG_DIR / "chain4_dsr.cfg").controller
    return simulate(unit_step_scenario(chain4, controller))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
