"""Slow, definition-level reference implementations used only by the tests.

Each one follows the textbook definition element by element, so the fast
closed forms in the library can be checked against it.
"""


def is_filter_subset(A, subset):
    """Contains top, up-closed and closed under odot."""
    if A.top not in subset:
        return False
    for a in subset:
        for b in A.elements():
            if A.leq[a][b] and b not in subset:
                return False
        for b in subset:
            if A.odot[a][b] not in subset:
                return False
    return True


def lattice_is_filter(L, subset):
    """Contains top, up-closed and closed under meet."""
    if L.top not in subset:
        return False
    for a in subset:
        for b in L.elements():
            if L.leq[a][b] and b not in subset:
                return False
        for b in subset:
            if L.meet[a][b] not in subset:
                return False
    return True


def fixed_point_filter(A, xs):
    """Least filter containing xs, by closing under up-sets and odot until
    nothing changes; the empty set generates {top}."""
    current = set(xs)
    current.add(A.top)
    changed = True
    while changed:
        changed = False
        for a in list(current):
            for b in A.elements():
                if A.leq[a][b] and b not in current:
                    current.add(b)
                    changed = True
            for b in list(current):
                c = A.odot[a][b]
                if c not in current:
                    current.add(c)
                    changed = True
    return frozenset(current)
