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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import Scenario
from .errors import (CapabilityError, NumericError, ScenarioError, SizeError,
                     ValidationError)
from .states import MAX_PARTIES

LETTERS = "UD"
# Largest moment basis: level 4 at n = 4 (321 words, 573 variables; one
# solve takes 12-21 s at a 196 MB peak on 2 cores), and n = 2 at level 12
# (313 words, 12-17 s, 292 MB).  The solver's gathered Schur columns
# take about 16 * basis^3 / n bytes, so the basis bounds both time and
# memory: n = 6 at level 3 (377 words) takes 23 s and n = 3 at level 9
# (1,159 words) would take 8 GB.
MAX_BASIS = 321

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


def identity_monomial(n: int) -> Monomial:
    return ((),) * n


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
        if n == 1:
            if len(word) == d:
                yield (word,)
        else:
            for rest in _monomials_of_degree(n - 1, d - len(word)):
                yield (word,) + rest


def monomial_list(scenario: Scenario, level: int) -> list[Monomial]:
    """Canonical monomials of total degree <= level, deterministically ordered.

    They are generated degree by degree, each degree in ascending order,
    and a SizeError is raised as soon as their count passes MAX_BASIS, so
    the work stays within the cap for any level.
    """
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    n = scenario.n
    if n > MAX_PARTIES:
        raise ScenarioError(f"n={n} exceeds the supported cap {MAX_PARTIES}")
    out = []
    for d in range(level + 1):
        for mono in _monomials_of_degree(n, d):
            out.append(mono)
            if len(out) > MAX_BASIS:
                raise SizeError(f"basis passes the cap of {MAX_BASIS} monomials "
                                f"at degree {d} of level {level}")
    return out


@dataclass
class MomentProblem:
    """Moment-matrix SDP instance for the noisy Hardy maximisation."""

    scenario: Scenario
    level: int
    epsilon: float
    basis: list
    variables: list
    cell_var: np.ndarray
    objective: dict
    equalities: list
    inequalities: list

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def identity_var(self) -> int:
        return self.variables.index(identity_monomial(self.scenario.n))


def _variable_key(m: Monomial) -> Monomial:
    d = dagger(m)
    return m if _sort_key(m) <= _sort_key(d) else d


def hardy_constraint_terms(n: int) -> list[dict]:
    """The n+1 noisy Hardy constraints as {monomial: coefficient} maps.

    The cyclic pair terms are single cross-party moments; the all-minus
    term expands each (1 - D_i) factor, e.g. for three parties
    1 - sum m(D_i) + sum m(D_i D_j) - m(D_1 D_2 D_3).
    """
    terms = []
    for i in range(n):
        j = (i + 1) % n
        mono = canonical_monomial([(i, 1), (j, 0)], n)
        terms.append({mono: 1.0})
    allminus: dict = {}
    for subset in product((0, 1), repeat=n):
        mono = canonical_monomial([(i, 1) for i in range(n) if subset[i]], n)
        sign = (-1.0) ** sum(subset)
        allminus[mono] = allminus.get(mono, 0.0) + sign
    terms.append(allminus)
    return terms


def check_level(scenario: Scenario, level: int) -> None:
    """Raise CapabilityError unless the level-``level`` moment matrix holds
    every moment the noisy Hardy problem reads.

    A cell's moment has degree at most 2 * level, and every moment of such
    a degree is a cell: each party's reduced word splits at any letter
    into the reversed word of the row monomial and the word of the column
    monomial, so the splits can give each side degree at most ``level``.
    """
    n = scenario.n
    needed = [canonical_monomial([(i, 0) for i in range(n)], n)]
    needed += [mono for term in hardy_constraint_terms(n) for mono in term]
    for mono in needed:
        if degree(mono) > 2 * level:
            raise CapabilityError(
                f"moment {monomial_str(mono)} is not expressible at level {level}")


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


def build_moment_problem(scenario: Scenario, level: int, epsilon: float) -> MomentProblem:
    """Assemble the level-``level`` relaxation of the noisy Hardy problem,
    with one moment variable per cyclic party-shift orbit.

    Cells are computed for one basis row per shift orbit and copied to the
    shifted rows, and a cell (i, j) whose mirror (j, i) is filled takes its
    variable.  Orbits are named by ``_orbit_key`` and numbered by first
    row-major appearance; all n cyclic Hardy rows stay, identical.
    """
    if epsilon < 0:
        raise ValidationError(f"epsilon = {epsilon!r} must be nonnegative")
    n = scenario.n
    basis = monomial_list(scenario, level)
    check_level(scenario, level)
    nb = len(basis)
    shifts = basis_shifts(basis)
    daggers = [dagger(b) for b in basis]

    orbit_ids: dict = {}  # orbit key -> provisional id, by first computation
    word_ids: dict = {}  # cell word -> provisional id
    cell_ids = np.full((nb, nb), -1, dtype=np.int64)
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
    order = list(dict.fromkeys(cell_ids.ravel().tolist()))  # by row-major appearance
    renumber = np.empty(len(order), dtype=np.int32)
    renumber[order] = range(len(order))
    keys = list(orbit_ids)
    variables = [keys[p] for p in order]
    moment_index = {key: k for k, key in enumerate(variables)}

    def lookup(mono: Monomial) -> int:
        return moment_index[_orbit_key(mono)]

    objective = {lookup(canonical_monomial([(i, 0) for i in range(n)], n)): 1.0}
    equalities = [({lookup(identity_monomial(n)): 1.0}, 1.0)]
    inequalities = []
    for term in hardy_constraint_terms(n):
        row: dict = {}
        for mono, coef in term.items():
            var = lookup(mono)
            row[var] = row.get(var, 0.0) + coef
        inequalities.append((row, float(epsilon)))
    return MomentProblem(scenario=scenario, level=level, epsilon=float(epsilon),
                         basis=basis, variables=variables, cell_var=renumber[cell_ids],
                         objective=objective, equalities=equalities,
                         inequalities=inequalities)


def npa_upper_bound(scenario: Scenario, level: int, epsilon: float,
                    tol: float = 1e-6) -> float:
    """Converged moment-relaxation value; an upper bound on the quantum
    noisy Hardy probability at the given hierarchy level.

    The solve runs on the cyclic orbit problem and needs no start point.
    Raises NumericError when the optimiser does not reach its stopping
    rule and residual targets.
    """
    from .sdp import sdp_solve

    sol = sdp_solve(build_moment_problem(scenario, level, epsilon), tol=tol)
    if not sol.converged:
        raise NumericError(
            f"moment SDP did not converge after {sol.iterations} iterations "
            f"(gap={sol.gap:.3e}, psd_residual={sol.psd_residual:.3e}, "
            f"affine_residual={sol.affine_residual:.3e})")
    return sol.value
