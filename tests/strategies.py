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
        # the second robot is one of the other n - 1, so every draw is a valid pair
        extra = st.integers(0, n - 1).flatmap(lambda i: st.tuples(
            st.just(i), st.integers(0, n - 2).map(lambda j: j + (j >= i))))
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


# values a config or argv may carry in place of a valid number
broken_numbers = st.sampled_from(["nan", "inf", "-1", "0", "1e300", "1e-300", "1e15"])


@st.composite
def cli_cases(draw):
    """(scenario file text, argv without --config and --out).

    The scenario is valid apart from at most one key, which is broken
    (not a number, NaN, negative, extreme) or missing. Valid runs take at
    most 2,000 samples, and so does each of tune's horizons; a broken dt
    or duration may ask for far more, which must fail before any step.
    """
    network = draw(coupling_networks(max_robots=5))
    dt = draw(st.sampled_from([0.03, 0.1, 0.5]))

    def number(strategy):
        return repr(draw(strategy))

    values = {
        ("network", "robots"): str(network.n),
        ("network", "couplings"): ", ".join(
            f"{i + 1}-{j + 1}: {k!r}" for (i, j), k in network.couplings.items()),
        ("network", "leader_stiffness"): ", ".join(map(repr, network.leader_stiffness)),
        ("controller", "kind"): draw(st.sampled_from(["baseline", "dsr"])),
        ("controller", "gamma"): number(st.floats(0.01, 50.0)),
        ("controller", "alpha"): number(st.floats(0.01, 5.0)),
        ("controller", "beta"): number(st.floats(0.1, 50.0)),
        ("controller", "delay_multiple"): number(st.integers(1, 3)),
        ("controller", "dt"): repr(dt),
        ("trajectory", "kind"): draw(st.sampled_from(["step", "filtered_step"])),
        ("trajectory", "amplitude"): number(st.floats(-100.0, 100.0)),
        ("trajectory", "cutoff"): number(st.floats(0.05, 2.0)),
        ("trajectory", "start_index"): number(st.integers(0, 5)),
        ("run", "duration"): repr(draw(st.integers(1, 2000)) * dt),
    }
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(values))))
    if broken is not None:
        replacement = draw(st.one_of(st.none(), broken_numbers, st.just("x")))
        if replacement is None:
            del values[broken]
        else:
            values[broken] = replacement
    sections = {}
    for (section, key), text in values.items():
        sections.setdefault(section, []).append(f"{key} = {text}")
    config = "\n\n".join(f"[{name}]\n" + "\n".join(lines) for name, lines in sections.items())

    def option(name, valid):
        return [name, draw(st.one_of(valid, valid, valid, broken_numbers))]

    command = draw(st.sampled_from(["simulate", "stability", "tune", "sweep", "reproduce"]))
    extra = []
    if command == "tune":
        extra = option("--target-ts", st.floats(0.5, 120.0).map(lambda k: repr(k * dt)))
    elif command == "sweep" and draw(st.booleans()):
        cutoffs = st.lists(st.floats(0.01, 1.0).map(repr), min_size=1, max_size=3)
        extra = option("--omega-c-list", cutoffs.map(",".join) | st.just("x"))
    elif command == "reproduce" and draw(st.booleans()):
        extra = option("--tolerance", st.floats(0.0, 0.2).map(repr))
    return config + "\n", [command] + extra
