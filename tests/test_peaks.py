"""The breath detector's peak finder against scipy's, its original."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respsim.pipeline import _find_peaks

signal = pytest.importorskip("scipy.signal")



def seeded_signal(seed: int, n: int, levels: int) -> np.ndarray:
    """Normal noise, or ``levels`` equal-spaced levels whose flat tops and
    equal peaks exercise the plateau and tie rules."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) if levels == 0 else rng.integers(0, levels, n) * 0.5


signals = (st.lists(st.floats(-10, 10) | st.sampled_from([0.0, 0.5, 1.0]), max_size=40)
           .map(np.array)
           | st.builds(seeded_signal, st.integers(0, 2**32 - 1), st.integers(20, 400),
                       st.integers(0, 6)))


@settings(max_examples=500, deadline=None)
@given(st.data(), signals, st.integers(1, 20))
def test_find_peaks_equals_scipy(data, x, d):
    # a threshold as detect_breaths sets it, a fraction of the range, or
    # exactly the height of some sample
    h = data.draw(st.floats(0, 1).map(lambda f: f * float(np.ptp(x))) | st.sampled_from(x.tolist())
                  if x.size else st.just(0.0))
    expected, _ = signal.find_peaks(x, height=h, distance=d, prominence=h)
    np.testing.assert_array_equal(_find_peaks(x, h, d, h), expected)


def test_find_peaks_equals_scipy_on_a_long_noisy_breath():
    rng = np.random.default_rng(4)
    t = np.arange(90_000) / 25.0
    x = 2.0 * np.sin(2 * np.pi * t / 4.0) + rng.normal(0.0, 0.3, t.size)
    h = 0.2 * float(np.ptp(x))
    expected, _ = signal.find_peaks(x, height=h, distance=37, prominence=h)
    assert expected.size == 900
    np.testing.assert_array_equal(_find_peaks(x, h, 37, h), expected)
