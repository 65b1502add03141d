"""Sweep two one-parameter families and print their discord curves.

Werner states are Bell-diagonal, so their discord also comes out of a
short closed expression in (c1, c2, c3) alone; the sweep prints both
routes side by side.  The second family is rank-deficient with F(z)
decreasing on all of (0, 1], so the best measurement stays at z = 0
for every parameter value.
"""

import numpy as np

from xdiscord import BlochX, discord, f_value, xlog2


def bell_diagonal_closed(c1: float, c2: float, c3: float) -> float:
    """Discord of a Bell-diagonal state straight from its correlations."""
    big = max(abs(c1), abs(c2), abs(c3))
    return float(0.25 * np.sum(xlog2(np.array([
        1 - c3 + c1 + c2, 1 - c3 - c1 - c2,
        1 + c3 + c1 - c2, 1 + c3 - c1 + c2,
    ]))) - 0.5 * np.sum(xlog2(np.array([1 + big, 1 - big]))))


def main() -> None:
    print("Werner family: r = s = 0, c1 = c2 = c3 = -a")
    print(f"{'a':>6} {'discord':>12} {'closed form':>12} {'z*':>5} {'region':>7}")
    for a in np.linspace(0.0, 1.0, 11):
        p = BlochX(0.0, 0.0, -a, -a, -a)
        res = discord(p)
        closed = bell_diagonal_closed(-a, -a, -a)
        assert abs(res.discord - closed) < 1e-12
        print(f"{a:>6.2f} {res.discord:>12.8f} {closed:>12.8f} "
              f"{res.z_star:>5.2f} {res.region:>7}")

    print("\nRank-deficient family: r = s = (1 - 2a)/3, "
          "c1 = c2 = 2/3, c3 = -1/3")
    print(f"{'a':>6} {'discord':>12} {'z*':>5} {'max F(z) - F(0), z > 0':>24}")
    for a in np.linspace(0.0, 1.0, 5):
        r = 1.0 / 3.0 - 2.0 * a / 3.0
        p = BlochX(r, r, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
        res = discord(p)
        interior = float(np.max(f_value(p, np.linspace(0.01, 1.0, 100))))
        print(f"{a:>6.2f} {res.discord:>12.8f} {res.z_star:>5.2f} "
              f"{interior - res.f_max:>24.2e}")
        assert res.z_star == 0.0


if __name__ == "__main__":
    main()
