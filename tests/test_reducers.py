"""The fast reducers against their plain definitions, bit for bit: the
robot-major block peaks and the filter that forms its input."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesive_transport.metrics import SETTLING_BAND, Peaks, sample_metrics
from cohesive_transport.trajectory import _Tustin


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


_CUTOFFS = [0.02 * i for i in range(1, 26)]


def _expected(amplitude, start, steps, cutoffs):
    """The docstring recursion of a step of ``amplitude`` from sample ``start``
    on, for one cutoff, or in a column per cutoff of a list."""
    step = np.zeros(steps + 1)
    step[start:] = amplitude
    if not isinstance(cutoffs, list):
        return _docstring_recursion(step, cutoffs * 0.03)
    return np.stack([_docstring_recursion(step, wc * 0.03) for wc in cutoffs], axis=1)


def test_tustin_is_the_docstring_recursion_bitwise(rng):
    for amplitude, start in ((50.0, 1), (rng.normal(0.0, 10.0), int(rng.integers(0, 50)))):
        series = _Tustin(amplitude, start, 0.1 * 0.03, 2000)[0:]
        assert bits(series) == bits(_expected(amplitude, start, 2000, 0.1))
        columns = _Tustin(amplitude, start, np.array(_CUTOFFS) * 0.03, 2000)[0:]
        assert columns.shape == (2001, 25)
        assert bits(columns) == bits(_expected(amplitude, start, 2000, _CUTOFFS))


@settings(deadline=None)
@given(st.integers(0, 300), st.integers(0, 6),
       st.sampled_from([50.0, -7.5, -0.0, 1e-310, 1e300]) | st.floats(-100.0, 100.0),
       st.sampled_from([0.1, _CUTOFFS]),
       st.lists(st.tuples(st.integers(0, 45), st.integers(0, 45), st.booleans()), max_size=25))
def test_tustin_read_in_blocks_is_the_docstring_recursion_bitwise(steps, start, amplitude,
                                                                 cutoffs, reads):
    """Rows read in order, as slices that overlap the last one and single rows
    one past it (as ``dynamics._run`` and the sweep read them), have the bits
    of the whole recursion, and no row past the furthest read is filtered."""
    expected = _expected(amplitude, start, steps, cutoffs)
    wd = np.array(cutoffs) * 0.03 if isinstance(cutoffs, list) else cutoffs * 0.03
    series = _Tustin(amplitude, start, wd, steps)
    assert series.shape == expected.shape and len(series) == steps + 1
    at, furthest = 0, 1
    for advance, rows, single in reads:
        at = min(at + advance, steps)
        index = at if single else slice(at, at + rows)
        assert bits(series[index]) == bits(expected[index])
        furthest = max(furthest, min(at + (1 if single else rows), steps + 1))
        assert series.filled == furthest
    if series.first > 0:
        with pytest.raises(IndexError):
            series[series.first - 1]
