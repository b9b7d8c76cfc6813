"""Bit-for-bit comparison of float arrays, for the column-kernel tests."""

import numpy as np


def assert_same_bits(actual, expected):
    """Equal as IEEE doubles bit for bit (0.0 is not -0.0); NaN matches NaN."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.array_equal(actual[finite].view(np.int64), expected[finite].view(np.int64))
