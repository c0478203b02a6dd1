"""The paper's closed forms, as oracles for the package's constructions.

``success_prob_closed(pairs)`` is the Hardy probability of the state
``states.hardy_state`` builds for ``pairs``, and
``optimal_alpha_sq_tripartite()`` the root ``states.pmax(3)`` finds by
bisection; the tests compare the package against both.
"""

import math

from hardylab.errors import ValidationError


def success_prob_closed(pairs) -> float:
    """Closed-form Hardy probability prod|a_i b_i|^2 / (1 - prod|a_i|^2)."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValidationError("need at least two parties")
    prod_a = prod_ab = 1.0
    for p in pairs:
        prod_a *= abs(p.alpha) ** 2
        prod_ab *= abs(p.alpha) ** 2 * abs(p.beta) ** 2
    return prod_ab / (1.0 - prod_a)


def optimal_alpha_sq_tripartite() -> float:
    """Closed-form optimal |alpha|^2 for three parties.

    ((17 + 3*sqrt(33))^(2/3) - (17 + 3*sqrt(33))^(1/3) - 2)
        / (3 * (17 + 3*sqrt(33))^(1/3)),
    the real root of x^3 + x^2 + x - 1.
    """
    c = (17.0 + 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return (c * c - c - 2.0) / (3.0 * c)
