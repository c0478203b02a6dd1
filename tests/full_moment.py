"""Cross-checks for the orbit builder: the Hardy conditions as monomial
maps, the full moment problem, with one variable per canonical word, and
its merge into cyclic party-shift orbits.

``npa.build_moment_problem`` builds the orbit problem directly and reads
its objective and rows off ``behavior.hardy_values``; the tests compare it
against ``cyclic_reduction(build_full_problem(...))[0]`` and against
``term_rows``, and solve the full problem to check the reduction loses
nothing.  ``check_level_by_terms`` walks the term maps for the moments
that ``npa.check_level`` decides on in closed form.
"""

from itertools import product

import numpy as np

from hardylab.errors import ValidationError
from hardylab.npa import (MomentProblem, _orbit_key, _rotate, _sort_key,
                          _variable_key, canonical_monomial, dagger, degree,
                          monomial_list, monomial_str, mul)


def hardy_constraint_terms(n):
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


def success_monomial(n):
    """The all-U product whose moment is the success probability."""
    return canonical_monomial([(i, 0) for i in range(n)], n)


def check_level_by_terms(n, level):
    """Raise ValidationError at the first moment the problem reads, the
    objective's then the term maps', whose degree passes 2 * level."""
    if n < 2:
        raise ValidationError(f"need at least two parties, got n={n}")
    needed = [success_monomial(n)]
    needed += [mono for term in hardy_constraint_terms(n) for mono in term]
    for mono in needed:
        if degree(mono) > 2 * level:
            raise ValidationError(
                f"moment {monomial_str(mono)} is not expressible at level {level}")


def term_rows(problem):
    """Objective c and Hardy rows g of an orbit problem, each monomial of
    the term maps looked up by its orbit key among ``problem.variables``."""
    index = {key: k for k, key in enumerate(problem.variables)}
    n = problem.n
    c = np.zeros(problem.n_vars)
    c[index[_orbit_key(success_monomial(n))]] = 1.0
    g = np.zeros((n + 1, problem.n_vars))
    for row, term in zip(g, hardy_constraint_terms(n)):
        for mono, coef in term.items():
            row[index[_orbit_key(mono)]] += coef
    return c, g


def build_full_problem(n, level, epsilon):
    """Level-``level`` relaxation with one variable per canonical word,
    cell by cell over the whole basis; it merges no orbits."""
    if epsilon < 0:
        raise ValidationError(f"epsilon = {epsilon!r} must be nonnegative")
    basis = monomial_list(n, level)
    nb = len(basis)
    daggers = [dagger(b) for b in basis]

    moment_index: dict = {}
    variables: list = []
    cell_var = np.empty((nb, nb), dtype=np.int32)
    for i in range(nb):
        for j in range(nb):
            key = _variable_key(mul(daggers[i], basis[j]))
            var = moment_index.get(key)
            if var is None:
                var = len(variables)
                moment_index[key] = var
                variables.append(key)
            cell_var[i, j] = var

    def lookup(mono):
        var = moment_index.get(_variable_key(mono))
        if var is None:
            raise ValidationError(
                f"moment {monomial_str(mono)} is not expressible at level {level}")
        return var

    c = np.zeros(len(variables))
    c[lookup(success_monomial(n))] = 1.0
    terms = hardy_constraint_terms(n)
    g = np.zeros((len(terms), len(variables)))
    for row, term in zip(g, terms):
        for mono, coef in term.items():
            row[lookup(mono)] += coef
    return MomentProblem(epsilon=float(epsilon), basis=basis, variables=variables,
                         cell_var=cell_var, c=c, g=g)


def cyclic_reduction(problem):
    """Merge the moment variables of each cyclic party-shift orbit.

    Returns the reduced problem and ``orbit_of``, the orbit index of each
    variable of ``problem``.  An orbit is named by the smallest variable
    key, by ``_sort_key``, of its party shifts.  Rows keep their
    order and coefficients of merged variables are summed; all n cyclic
    Hardy rows stay, identical after the merge.
    """
    n = problem.n
    orbit_index: dict = {}
    orbit_of = np.empty(problem.n_vars, dtype=np.int32)
    for k, var in enumerate(problem.variables):
        key = min((_variable_key(_rotate(var, s)) for s in range(n)), key=_sort_key)
        orbit_of[k] = orbit_index.setdefault(key, len(orbit_index))

    # column o of merge sums the columns of orbit o's variables
    merge = (orbit_of[:, None] == np.arange(len(orbit_index))).astype(float)
    reduced = MomentProblem(
        epsilon=problem.epsilon, basis=problem.basis, variables=list(orbit_index),
        cell_var=orbit_of[problem.cell_var],
        c=problem.c @ merge, g=problem.g @ merge)
    return reduced, orbit_of
