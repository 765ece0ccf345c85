"""The fast reducers against their plain definitions, bit for bit: the
robot-major block peaks and the filter that forms its input once."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport.metrics import SETTLING_BAND, Peaks, sample_metrics
from cohesive_transport.trajectory import _tustin


def bits(value):
    return np.asarray(value).tobytes()


@st.composite
def blocks_with_splits(draw):
    """Samples (rows, n) or (rows, batch, n) with signed zeros, ties, one
    sample partly NaN, and the sorted samples its blocks end at before the
    last one."""
    rows = draw(st.integers(1, 12))
    shape = (rows,) + draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 70)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([0.0, -0.0, 1.0, -0.5, 0.98, 1.02, -0.49, -0.51])
    positions = np.where(rng.random(shape) < 0.5, rng.choice(values, shape),
                         rng.uniform(-2.0, 2.0, shape))
    if draw(st.booleans()):
        row = positions[draw(st.integers(0, rows - 1))]
        row[rng.random(row.shape) < 0.3] = np.nan
        row.flat[draw(st.integers(0, row.size - 1))] = np.nan
    cuts = sorted(draw(st.sets(st.integers(1, rows - 2)))) if rows > 2 else []
    return positions, cuts, draw(st.sampled_from([None, 1.0, -0.5]))


@settings(max_examples=300, deadline=None)
@given(blocks_with_splits())
def test_peaks_equal_the_plain_definitions_bitwise(case):
    positions, cuts, final_value = case
    spreads = np.ptp(positions, axis=-1)
    moves = np.abs(np.diff(positions, axis=0)).max(axis=-1)
    per_sample = sample_metrics(positions)
    assert bits(per_sample[0]) == bits(spreads)
    assert bits(per_sample[1]) == bits(moves)

    plain = {"peak_spread": np.maximum(0.0, spreads.max(axis=0)),
             "peak_move": np.maximum(0.0, moves.max(axis=0, initial=0.0)),
             "end": len(positions) - 1}
    if final_value:
        outside = (np.abs(positions - final_value)
                   > SETTLING_BAND * abs(final_value)).any(axis=-1)
        samples = np.arange(len(positions)).reshape((-1,) + (1,) * (outside.ndim - 1))
        plain["last_outside"] = np.where(outside, samples, -1).max(axis=0)
    else:
        plain["last_outside"] = -1

    whole = Peaks(final_value)
    whole.add(1, positions)
    split = Peaks(final_value)
    starts = [1] + [cut + 1 for cut in cuts]
    for m, end in zip(starts, [cut + 1 for cut in cuts] + [len(positions)]):
        split.add(m, positions[m - 1:end])   # row 0 repeats the sample before m
    for peaks in (whole, split):
        for field, expected in plain.items():
            assert bits(getattr(peaks, field)) == bits(expected), field


def _docstring_recursion(steps, wd):
    """y_d[m] = (2 - wd)/(2 + wd) * y_d[m-1] + wd/(2 + wd) * (y_ds[m] + y_ds[m-1]),
    one Python float at a time."""
    y = [0.0]
    for m in range(1, len(steps)):
        y.append((2.0 - wd) / (2.0 + wd) * y[-1]
                 + wd / (2.0 + wd) * (float(steps[m]) + float(steps[m - 1])))
    return np.array(y)


def test_tustin_is_the_docstring_recursion_bitwise(rng):
    steps = np.zeros(2001)
    steps[1:] = 50.0
    noisy = rng.normal(0.0, 10.0, 2001)
    cutoffs = [0.02 * i for i in range(1, 26)]
    for series in (steps, noisy):
        assert bits(_tustin(series, 0.1 * 0.03)) == bits(_docstring_recursion(series, 0.1 * 0.03))
        columns = _tustin(series, np.array(cutoffs) * 0.03)
        assert columns.shape == (2001, 25)
        for k, wc in enumerate(cutoffs):
            assert bits(columns[:, k]) == bits(_docstring_recursion(series, wc * 0.03))
