"""The local and no-signaling bounds on the noisy Hardy probability.

Both are closed forms.  Write p for the success probability and z_1, ...,
z_n, z_- for the n + 1 Hardy terms of ``behavior.hardy_values``; a noisy
behavior has every term at most epsilon.  Each bound is an inequality
that every behavior of the polytope obeys, and a behavior of the polytope
that meets it.  A deterministic strategy assigns each party an outcome at
U and one at D; a single violator is a strategy with p = 1 whose terms
are all 0 but one, which is 1.
"""

from __future__ import annotations

from .states import check_noise, check_parties

# The largest n whose no-signaling certificate (multipliers and box, see
# ``nosignaling_max``) the tests check in exact arithmetic.
NS_MAX_PARTIES = 5


def local_max(n: int, epsilon: float) -> float:
    """Maximum of the noisy Hardy probability over local behaviors of n
    parties, min(1, (n + 1) * epsilon), for 2 <= n <= MAX_PARTIES.

    Bound: p <= z_1 + ... + z_n + z_- on every deterministic strategy,
    so on every local behavior, a mixture of them, p <= (n + 1) * epsilon.
    Proof: a strategy with p = 1 answers "+" at every U.  If it answers
    "-" at every D, the all-minus term z_- is 1.  Otherwise some party i
    answers "+" at D, and pair term z_i (D_i "+", U_{i+1} "+") is 1.

    Witness: the n + 1 single violators (every U "+"; every D "-", or
    only D_i "+"), weight epsilon each, and the rest on a strategy whose p
    and terms are all 0 (every U "-" and every D "+").  From epsilon =
    1 / (n + 1) on, the violators alone at weight 1 / (n + 1) give p = 1.
    """
    check_parties(n)
    check_noise(epsilon)
    return min(1.0, (n + 1) * float(epsilon)) + 0.0  # -0.0 reads 0.0


def nosignaling_max(n: int, epsilon: float) -> float:
    """Maximum of the noisy Hardy probability over no-signaling behaviors
    of n parties, min(1, (1 + (n^2 - 1) * epsilon) / n), for 2 <= n <=
    NS_MAX_PARTIES.

    Bound: f = n p - (n - 1)(z_1 + ... + z_n + z_-) <= 1 on the
    no-signaling polytope, so p <= (1 + (n - 1)(n + 1) * epsilon) / n.  Its
    certificate is one integer multiplier per equality row, y, on the
    per-setting normalisation rows (right-hand side 1) and the per-party
    no-signaling rows of ``behavior.signaling_gaps`` (right-hand side 0):
    on every entry of the behavior table f <= A^T y, and b^T y = 1.

    Witness: a box, a no-signaling behavior with p = 1/n, every term 0
    and entries in {0, 1/n, 2/n}, mixed with weight epsilon on each
    single violator of ``local_max``.

    No proof for every n is known.  The tests find y and the box with an
    LP solver and check both in integers for each n up to NS_MAX_PARTIES,
    so only those n are accepted.
    """
    check_parties(n, NS_MAX_PARTIES)
    check_noise(epsilon)
    return min(1.0, (1.0 + (n * n - 1) * float(epsilon)) / n)
