"""Write besseljzero.json, the mpmath.besseljzero values that tests/test_billiard.py checks against.

mpmath.besseljzero isolates every zero of an order from x = 2.4 upwards
before it refines one, which takes seconds at high orders (about 2 s per
zero at order 300), so the tests read its values from this file instead
of calling it.  Run from the repository root:

    python tests/data/make_besseljzero.py
"""

import json
import math
from pathlib import Path

import mpmath

mpmath.mp.dps = 30

SECTOR_ANGLE = 2.0 * math.pi / 5.0  # orders m*pi/angle = 2.5 m
SECTOR_X_MAX = 60.0
HIGH_ORDER, HIGH_COUNT = 300, 3


def zeros_below(order, x_max):
    """All zeros of J_order up to x_max, and the distance of the nearest zero to x_max."""
    out, s = [], 1
    while True:
        z = mpmath.besseljzero(order, s)
        if z > x_max:
            return out, float(z - x_max)
        out.append(float(z))
        s += 1


def main():
    sector, margin, m = {}, math.inf, 1
    while True:
        order = mpmath.mpf(5) * m / 2
        zeros, above = zeros_below(order, SECTOR_X_MAX)
        margin = min(margin, above, *(SECTOR_X_MAX - z for z in zeros))
        if not zeros:
            break
        sector[str(m)] = zeros
        m += 1
    table = {
        "source": f"mpmath {mpmath.__version__} besseljzero at mp.dps = {mpmath.mp.dps}",
        "sector": {
            "angle": "2*pi/5",
            "x_max": SECTOR_X_MAX,
            "nearest_zero_to_x_max": margin,
            "zeros_by_m": sector,
        },
        "order_300": [float(mpmath.besseljzero(HIGH_ORDER, s)) for s in range(1, HIGH_COUNT + 1)],
    }
    path = Path(__file__).with_name("besseljzero.json")
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
