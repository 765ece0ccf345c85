"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from cohesive_transport import CouplingNetwork, StiffnessChain

stiffness_values = st.floats(min_value=0.01, max_value=10.0,
                             allow_nan=False, allow_infinity=False)
position_values = st.floats(min_value=-100.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw, min_robots=1, max_robots=6):
    """Random stiffness chain with at least one pinned robot."""
    n = draw(st.integers(min_robots, max_robots))
    neighbor = tuple(draw(st.lists(stiffness_values, min_size=n - 1, max_size=n - 1)))
    leader_idx = draw(st.integers(0, n - 1))
    leaders = [0.0] * n
    leaders[leader_idx] = draw(stiffness_values)
    for k in range(n):
        if k != leader_idx and draw(st.booleans()):
            leaders[k] = draw(stiffness_values)
    return StiffnessChain(neighbor_stiffness=neighbor,
                          leader_stiffness=tuple(leaders))


@st.composite
def chains_with_positions(draw, min_robots=1, max_robots=6):
    chain = draw(chains(min_robots, max_robots))
    positions = draw(st.lists(position_values, min_size=chain.n, max_size=chain.n))
    return chain, positions


@st.composite
def coupling_networks(draw, min_robots=1, max_robots=8):
    """Random connected stiffness graph with at least one pinned robot.

    A random spanning tree keeps every robot pinned through the leader;
    extra couplings add cycles. Pairs come in random order and either
    orientation, as a config file may list them.
    """
    n = draw(st.integers(min_robots, max_robots))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        pairs |= {(min(p), max(p)) for p in draw(st.lists(extra, max_size=2 * n))}
    ordered = draw(st.permutations(sorted(pairs)))
    couplings = {}
    for i, j in ordered:
        key = (j, i) if draw(st.booleans()) else (i, j)
        couplings[key] = draw(stiffness_values)
    leaders = [0.0] * n
    leaders[draw(st.integers(0, n - 1))] = draw(stiffness_values)
    for k in range(n):
        if leaders[k] == 0.0 and draw(st.booleans()):
            leaders[k] = draw(stiffness_values)
    return CouplingNetwork(n=n, couplings=couplings, leader_stiffness=tuple(leaders))
