"""Textbook bounds on discord, a check that shares no code with the search.

Each bound reads only entropies(), the DiscordResult and the state:

- 0 <= Q <= S(B): discord measured on qubit b is at most its entropy
  (Ollivier & Zurek 2001; Xi et al. 2012);
- 0 <= C <= min(S(A), S(B)) (Henderson & Vedral 2001);
- I(p.swapped()) = I(p): mutual information is symmetric;
- Q = 0 on a state with c1 = c2 = 0: it is diagonal in a product basis,
  so measuring b in that basis disturbs nothing (Ollivier & Zurek 2001).
"""

from conftest import NEAR_CLASSICAL_BLOCH
from xdiscord import BlochX, discord, entropies, random_states

TOL = 1e-12

# c1 = c2 = 0 on the edges of the physical region: pure and mixed product
# states with |r| = 1 or |s| = 1, and perfectly correlated |c3| = 1
# states; then the maximally mixed state
CLASSICAL_BOUNDARY = [
    (1.0, 1.0, 0.0, 0.0, 1.0),
    (0.3, 1.0, 0.0, 0.0, 0.3),
    (-1.0, 0.2, 0.0, 0.0, -0.2),
    (0.0, -1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, 0.0, 0.0, 0.0),
]


def test_discord_and_classical_correlation_bounds(families):
    broken = []
    for p in families:
        res = discord(p)
        sa, sb, _ = entropies(p)
        q, cc, mi = (res.discord, res.classical_correlation,
                     res.mutual_information)
        if not -TOL <= q <= sb + TOL:
            broken.append(("0 <= Q <= S(B)", p.as_tuple(), q, sb))
        if not -TOL <= cc <= min(sa, sb) + TOL:
            broken.append(("0 <= C <= min(S(A), S(B))", p.as_tuple(), cc,
                           sa, sb))
        swapped = discord(p.swapped()).mutual_information
        if abs(swapped - mi) > TOL:
            broken.append(("I(swapped) = I", p.as_tuple(), swapped, mi))
    assert broken == []


def local_images(t: tuple[float, ...]) -> set[tuple[float, ...]]:
    """(r, s, c1, c2, c3) and its images under the local symmetries: the
    closure under sigma_x on a, sigma_x on b, sigma_z on a and a pi/2
    z-rotation on both qubits (README, "Regions")."""
    moves = (lambda r, s, c1, c2, c3: (-r, s, c1, -c2, -c3),
             lambda r, s, c1, c2, c3: (r, -s, c1, -c2, -c3),
             lambda r, s, c1, c2, c3: (r, s, -c1, -c2, c3),
             lambda r, s, c1, c2, c3: (r, s, c2, c1, c3))
    found, todo = {t}, [t]
    while todo:
        current = todo.pop()
        for move in moves:
            image = move(*current)
            if image not in found:
                found.add(image)
                todo.append(image)
    return found


def test_classical_states_have_zero_discord(rng):
    # zeroing c1 and c2 only widens both positivity margins, so every
    # uniform draw gives a physical classical state.  The near-classical
    # states, with two eigenvalues in (1e-13, 1e-12), run with every
    # local image
    drawn = [BlochX(p.r, p.s, 0.0, 0.0, p.c3)
             for p in random_states(rng, 2500)]
    drawn += [BlochX(*image) for t in NEAR_CLASSICAL_BLOCH
              for image in sorted(local_images(t))]
    states = ([q for p in drawn for q in (p, p.swapped())]
              + [BlochX(*t) for t in CLASSICAL_BOUNDARY])
    broken = []
    for p in states:
        q = discord(p).discord
        if not abs(q) <= TOL:
            broken.append((p.as_tuple(), q))
    assert broken == []
