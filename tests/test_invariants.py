"""Textbook bounds on discord, a check that shares no code with the search.

Each bound reads only entropies(), the DiscordResult and the state:

- 0 <= Q <= S(B): discord measured on qubit b is at most its entropy
  (Ollivier & Zurek 2001; Xi et al. 2012);
- 0 <= C <= min(S(A), S(B)) (Henderson & Vedral 2001);
- I(p.swapped()) = I(p): mutual information is symmetric.
"""

from xdiscord import discord, entropies

TOL = 1e-12


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
