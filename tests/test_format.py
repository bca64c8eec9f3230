"""The numpy snapshot formatter: its bytes equal Python's ``"%.15e"``."""

from fractions import Fraction

import numpy as np

from fracsg import _format
from fracsg._format import csv_lines

POWERS = 10.0 ** np.arange(-323, 309)
EDGES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
     1.7976931348623157e308, -1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf,
     2.0 ** 50 + 0.5, -(2.0 ** 50 + 0.5), 2.0 ** 53, 1.0, 0.1, 0.5, 1 / 3, 2 / 3],
    POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf), -POWERS,
])


def reference(values) -> bytes:
    return "".join("%.15e\n" % v for v in np.asarray(values, float).tolist()).encode()


def formatted(values) -> bytes:
    return csv_lines(np.asarray(values, float).reshape(-1, 1))


def test_edge_values():
    assert formatted(EDGES) == reference(EDGES)


def test_scaled_boundaries_and_carries():
    # 16-digit mantissas at and next to 1e15 and 1e16 once scaled, ties
    # between two 16-digit decimals, and values that round up to a new decade
    anchors = np.array([
        9.9999999999999995e-01, 9.999999999999999e-01, 9.9999999999999994e-01,
        1.0000000000000002, 1.0000000000000004, 9.9999999999999995e22, 9.9999999999999991e-5,
        1.0000000000000005, 1.2345678901234565, 9.999999999999995e99, 1.0000000000000015e-100,
        4.35, 0.15, 2.675, 1e23, 5e-310, 1.5e-323,
    ])
    values = (anchors.view(np.int64)[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
    values = np.concatenate([values, -values])  # each anchor and 3 neighbours either side
    assert formatted(values) == reference(values)


def test_random_bit_patterns(rng):
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=250_000,
                        dtype=np.int64, endpoint=True)
    values = bits.view(np.float64)
    assert formatted(values) == reference(values)


def test_every_cell_falling_back_gives_the_same_bytes(monkeypatch, rng):
    monkeypatch.setattr(_format, "MARGIN", 1.0)  # as where np.longdouble is plain double
    values = np.concatenate([EDGES, rng.normal(size=1000)])
    assert formatted(values) == reference(values)


def test_power_table_within_one_unit_in_the_last_place():
    # the margin's error bound assumes each 10^k is off by at most eps relative
    pow10, _ = _format._tables()
    eps = Fraction(float(np.finfo(np.longdouble).eps))
    for k, p in zip(range(_format._POW_MIN, 1 - _format._POW_MIN), pow10):
        exact = Fraction(10) ** k
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= eps * exact, k


def test_edge_values_in_every_column_of_a_table():
    # each row's newline replaces its last cell's separator, whichever path formatted it
    table = np.stack([np.roll(EDGES, k) for k in range(3)], axis=1)
    expected = "".join(",".join("%.15e" % v for v in row) + "\n" for row in table.tolist())
    assert csv_lines(table) == expected.encode()
