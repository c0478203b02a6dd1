"""Cross-check for the orbit builder: the full moment problem, with one
variable per canonical word, and its merge into cyclic party-shift orbits.

``npa.build_moment_problem`` builds the orbit problem directly; the tests
compare it against ``cyclic_reduction(build_full_problem(...))[0]`` and
solve the full problem to check the reduction loses nothing.
"""

import numpy as np

from hardylab.errors import CapabilityError, ValidationError
from hardylab.npa import (MomentProblem, _rotate, _sort_key, _variable_key,
                          canonical_monomial, dagger, hardy_constraint_terms,
                          monomial_list, monomial_str, mul)


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
            raise CapabilityError(
                f"moment {monomial_str(mono)} is not expressible at level {level}")
        return var

    c = np.zeros(len(variables))
    c[lookup(canonical_monomial([(i, 0) for i in range(n)], n))] = 1.0
    terms = hardy_constraint_terms(n)
    g = np.zeros((len(terms), len(variables)))
    for row, term in zip(g, terms):
        for mono, coef in term.items():
            row[lookup(mono)] += coef
    return MomentProblem(n=n, level=level, epsilon=float(epsilon), basis=basis,
                         variables=variables, cell_var=cell_var, c=c, g=g)


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
        n=n, level=problem.level, epsilon=problem.epsilon,
        basis=problem.basis, variables=list(orbit_index),
        cell_var=orbit_of[problem.cell_var],
        c=problem.c @ merge, g=problem.g @ merge)
    return reduced, orbit_of
