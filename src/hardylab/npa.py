"""Moment-matrix relaxation of the noisy Hardy problem.

Monomials are products of the per-party '+'-outcome projectors (one per
dichotomic measurement; the '-' projector is eliminated through
completeness).  Letters of different parties commute, same-party letters
do not, and projector idempotence collapses equal neighbours, so a
canonical monomial is an ascending tuple of per-party reduced words.

The moment matrix over the level-k monomial basis may be taken real
symmetric without loss: if a complex Hermitian moment matrix is feasible
then so is its entrywise conjugate (every constraint here has real
coefficients), and the average of the two is a real symmetric feasible
matrix with the same objective.  Cell (u, v) and cell (v, u) therefore
share one variable, identified by canon(u'v) ~ canon((u'v)').

The Hardy problem is also invariant under the cyclic party shift
i -> i + 1: it maps the objective, the all-minus term and the set of
cyclic pair terms to themselves, so the shift of a feasible point is
feasible with the same objective.  The feasible set is convex, so the
average of an optimal point over its n shifts is feasible and optimal,
and it is shift-symmetric.  Some optimum therefore has equal moments on
every Z_n orbit, and ``build_moment_problem`` builds the problem over one
variable per orbit (Ioannou & Rosset, arXiv:2112.10803).

``sdp.sdp_solve`` takes the problem as plain arrays: the objective
vector c, the Hardy rows g, each bounded by epsilon, the variable of
every matrix cell and the party shifts of the basis.  c and g come from
``behavior.hardy_values``, the one Hardy evaluator, applied to a table
of linear forms over the moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import hardy_values
from .errors import NumericError, ValidationError
from .sdp import sdp_solve
from .states import check_noise, check_parties

LETTERS = "UD"
# Largest moment basis: level 4 at n = 4 (321 words, 573 variables; one
# solve takes 12-21 s at a 196 MB peak on 2 cores), and n = 2 at level 12
# (313 words, 12-17 s, 292 MB).  The solver's gathered Schur columns
# take about 16 * basis^3 / n bytes, so the basis bounds both time and
# memory: n = 6 at level 3 (377 words) takes 23 s and n = 3 at level 9
# (1,159 words) would take 8 GB.
MAX_BASIS = 321

# One party's factor of P(a|x), P^x for a = + and 1 - P^x for a = -, as
# the coefficients [letter, x, a] of its letters (none, U, D).
_LOCAL_FORM = np.array([[[0, 1], [0, 1]],
                        [[1, -1], [0, 0]],
                        [[0, 0], [1, -1]]], dtype=float)

Word = tuple[int, ...]
Monomial = tuple[Word, ...]


def reduce_word(word) -> Word:
    out = []
    for letter in word:
        if letter not in (0, 1):
            raise ValidationError(f"letter {letter!r} not in {{0, 1}}")
        if not out or out[-1] != letter:
            out.append(letter)
    return tuple(out)


def canonical_monomial(ops, n: int) -> Monomial:
    """Canonical form of a product of (party, letter) projector factors.

    Cross-party factors commute and are sorted by party; within a party
    the original order is preserved and equal neighbours collapse.
    """
    words = [[] for _ in range(n)]
    for party, letter in ops:
        if not 0 <= party < n:
            raise ValidationError(f"party {party} out of range for n={n}")
        words[party].append(letter)
    return tuple(reduce_word(w) for w in words)


def dagger(m: Monomial) -> Monomial:
    return tuple(w[::-1] for w in m)


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(reduce_word(wa + wb) for wa, wb in zip(a, b))


def degree(m: Monomial) -> int:
    return sum(len(w) for w in m)


def monomial_str(m: Monomial) -> str:
    parts = [f"p{i + 1}:" + "".join(LETTERS[x] for x in w)
             for i, w in enumerate(m) if w]
    return ".".join(parts) if parts else "1"


def _sort_key(m: Monomial):
    return (degree(m), m)


def _party_words(max_len: int) -> list[Word]:
    """All reduced words of one party up to ``max_len`` letters, ascending."""
    return [()] + [tuple((first + k) % 2 for k in range(length))
                   for first in (0, 1) for length in range(1, max_len + 1)]


def _monomials_of_degree(n: int, d: int):
    """Canonical n-party monomials of total degree exactly ``d``, ascending."""
    for word in _party_words(d):
        if n > 1:
            yield from ((word,) + rest for rest in _monomials_of_degree(n - 1, d - len(word)))
        elif len(word) == d:
            yield (word,)


def monomial_list(n: int, level: int) -> list[Monomial]:
    """Canonical n-party monomials of total degree <= level, for
    2 <= n <= MAX_PARTIES, deterministically ordered.

    They are generated degree by degree, each degree in ascending order,
    and a ValidationError is raised as soon as their count passes
    MAX_BASIS, so the work stays within the cap for any level.
    """
    check_parties(n)
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    out = []
    for d in range(level + 1):
        for mono in _monomials_of_degree(n, d):
            out.append(mono)
            if len(out) > MAX_BASIS:
                raise ValidationError(f"basis passes the cap of {MAX_BASIS} monomials "
                                      f"at degree {d} of level {level}")
    return out


@dataclass
class MomentProblem:
    """The noisy Hardy maximisation as arrays: maximise c.m subject to
    g m <= epsilon row by row and m[cell_var] positive semidefinite.

    ``variables`` names the entries of m and cell (i, j) over ``basis``
    holds m[cell_var[i, j]].  Variable 0, cell (0, 0), is the identity
    moment, which the solver fixes to 1.  ``shifts`` is derived from the
    basis (see ``basis_shifts``).
    """

    n: int
    level: int
    epsilon: float
    basis: list
    variables: list
    cell_var: np.ndarray
    c: np.ndarray
    g: np.ndarray

    @property
    def shifts(self) -> np.ndarray | None:
        return basis_shifts(self.basis)

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def _variable_key(m: Monomial) -> Monomial:
    d = dagger(m)
    return m if _sort_key(m) <= _sort_key(d) else d


def check_level(n: int, level: int) -> None:
    """Raise ValidationError unless the level-``level`` moment matrix of n
    parties holds every moment the noisy Hardy problem reads.

    A cell's moment has degree at most 2 * level, and every moment of such
    a degree is a cell: each party's reduced word splits at any letter
    into the reversed word of the row monomial and the word of the column
    monomial, so the splits can give each side degree at most ``level``.
    Every Hardy moment has at most one letter per party, and the all-U
    product of the objective has one for each, so the problem fits if and
    only if n <= 2 * level.
    """
    check_parties(n)
    if n > 2 * level:
        raise ValidationError(
            f"moment {monomial_str(((0,),) * n)} is not expressible at level {level}")


def _rotate(m: Monomial, s: int) -> Monomial:
    """Party shift i -> i + s (mod n) of a monomial."""
    return m[-s:] + m[:-s] if s else m


def _orbit_key(m: Monomial) -> Monomial:
    """Orbit name of a moment: its smallest shifted variable key."""
    return min((_variable_key(_rotate(m, s)) for s in range(len(m))), key=_sort_key)


def basis_shifts(basis) -> np.ndarray | None:
    """Basis index of the party shift i -> i + s of each basis monomial, one
    row per s = 0..n-1, or None when the basis is not closed under them."""
    index = {b: i for i, b in enumerate(basis)}
    shifts = [[index.get(_rotate(b, s)) for b in basis] for s in range(len(basis[0]))]
    if len(index) != len(basis) or any(None in row for row in shifts):
        return None
    return np.array(shifts)


def build_moment_problem(n: int, level: int, epsilon: float) -> MomentProblem:
    """Assemble the level-``level`` relaxation of the noisy Hardy problem,
    with one moment variable per cyclic party-shift orbit.

    Cells are computed for one basis row per shift orbit and copied to the
    shifted rows, and a cell (i, j) whose mirror (j, i) is filled takes its
    variable.  Orbits are named by ``_orbit_key`` and numbered as first
    computed, so by first row-major appearance: rows are visited in order,
    each shift orbit is computed at its smallest row, a computed row takes
    new ids in column order, and every mirrored or shift-copied cell holds
    an earlier id.  The objective c and the n + 1 Hardy rows g (all n cyclic
    rows stay, identical) come from ``behavior.hardy_values``.
    """
    check_noise(epsilon)
    basis = monomial_list(n, level)
    check_level(n, level)
    nb = len(basis)
    shifts = basis_shifts(basis)
    daggers = [dagger(b) for b in basis]

    orbit_ids: dict = {}  # orbit key -> id, by first computation
    word_ids: dict = {}  # cell word -> id
    cell_ids = np.full((nb, nb), -1, dtype=np.int32)
    for i in range(nb):
        if cell_ids[i, 0] >= 0:
            continue
        filled = cell_ids[:, 0] >= 0
        cell_ids[i, filled] = cell_ids[filled, i]
        for j in np.flatnonzero(~filled):
            word = mul(daggers[i], basis[j])
            cid = word_ids.get(word)
            if cid is None:
                cid = word_ids[word] = orbit_ids.setdefault(_orbit_key(word), len(orbit_ids))
            cell_ids[i, j] = cid
        for perm in shifts[1:]:
            cell_ids[perm[i], perm] = cell_ids[i]
    variables = list(orbit_ids)

    # behavior.hardy_values reads c and g off one table of linear forms:
    # entry (v, x, a) is the coefficient of product v, in C order over
    # (none, U, D) per party, in P(a|x).  It is the outer product of one
    # _LOCAL_FORM per party, which einsum forms without a BLAS call.
    operands = [op for i in range(n) for op in (_LOCAL_FORM, [i, n + i, 2 * n + i])]
    forms = np.einsum(*operands, list(range(3 * n)))
    p, zs = hardy_values(forms.reshape((3 ** n,) + (2,) * (2 * n)), n)
    var = [orbit_ids[_orbit_key(canonical_monomial(
               [(i, x - 1) for i, x in enumerate(letters) if x], n))]
           for letters in product(range(3), repeat=n)]
    c = np.zeros(len(variables))
    np.add.at(c, var, p)
    g = np.zeros((n + 1, len(variables)))  # one row per Hardy term
    np.add.at(g.T, var, zs)
    return MomentProblem(n=n, level=level, epsilon=float(epsilon), basis=basis,
                         variables=variables, cell_var=cell_ids,
                         c=c, g=g)


def npa_upper_bound(n: int, level: int, epsilon: float) -> float:
    """Converged moment-relaxation value; an upper bound on the quantum
    noisy Hardy probability at the given hierarchy level.

    The solve runs on the cyclic orbit problem and needs no start point.
    Raises NumericError when the optimiser does not reach its stopping
    rule and residual targets; the message names what ended the solve.
    """
    sol = sdp_solve(build_moment_problem(n, level, epsilon))
    if not sol.converged:
        raise NumericError(
            f"moment SDP did not converge after {sol.iterations} iterations "
            f"(stopped by {sol.stopped_by}; gap={sol.gap:.3e}, "
            f"psd_residual={sol.psd_residual:.3e}, "
            f"affine_residual={sol.affine_residual:.3e})")
    return sol.value
