"""Bounded distributive lattices as Heyting algebras: validation, lattice
BLP, normality predicates and conormal radical lifting.

A finite bounded distributive lattice is a residuated lattice with
odot = meet, so its filters, spectra, quotients and radical are the ones
of `rlx.filters`, and its Boolean center is `core.complemented_elements`.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    _normalized,
    _validate_lattice,
    complemented_elements,
    distributivity_witness,
    validate,
)
from .errors import NotConormal, NotDistributive
from .filters import all_filters, quotient, radical


def validate_bdl(labels, leq):
    """Bounded lattice with exhaustive distributivity check, returned as the
    Heyting algebra on it (odot = meet).

    Memoized by the normalized (labels, leq): each labeled order yields
    one algebra.  The O(n^3) distributivity scan is memoized by the order
    alone, so an order met again under other labels is not scanned
    again.  A failure is never stored, so NotDistributive and
    AxiomViolation raise on every call."""
    labels, leq = _normalized(labels, leq)
    # the memos keep the order `_validate_lattice` holds, not this copy
    return _validate_bdl(labels, _validate_lattice(leq)[0])


@lru_cache(maxsize=None)
def _validate_bdl(labels, leq):
    return validate(labels, leq, _distributive_meet(leq))


@lru_cache(maxsize=None)
def _distributive_meet(leq):
    """The meet table of a normalized order, once the order is checked to
    be a distributive bounded lattice."""
    _, _, _, join, meet = _validate_lattice(leq)
    witness = distributivity_witness(leq, join, meet)
    if witness is not None:
        raise NotDistributive(witness)
    return meet


def lattice_blp_filter(L, F):
    """Does F lift Boolean elements: B(L/F) inside B(L)/F?"""
    Q = quotient(L, F)
    return (complemented_elements(Q.quotient)
            <= {Q.class_of[e] for e in complemented_elements(L)})


def lattice_blp(L):
    """Per-filter Boolean lifting and the conjunction."""
    per = {F: lattice_blp_filter(L, F) for F in all_filters(L)}
    return per, all(per.values())


def is_normal_lattice(L):
    """x|y=1 always splits: some u,v with u&v=0, u|x=v|y=1."""
    return _normal_witnesses(L) is None


def _normal_witnesses(L):
    for x in L.elements():
        for y in L.elements():
            if L.join[x][y] != L.top:
                continue
            ok = any(L.meet[u][v] == L.bot
                     and L.join[u][x] == L.top and L.join[v][y] == L.top
                     for u in L.elements() for v in L.elements())
            if not ok:
                return (x, y)
    return None


def is_conormal_lattice(L):
    return _conormal_witnesses(L) is None


def _conormal_witnesses(L):
    for x in L.elements():
        for y in L.elements():
            if L.meet[x][y] != L.bot:
                continue
            ok = any(L.join[u][v] == L.top
                     and L.meet[u][x] == L.bot and L.meet[v][y] == L.bot
                     for u in L.elements() for v in L.elements())
            if not ok:
                return (x, y)
    return None


def conormal_radical_lifting(L):
    """Boolean lifting of the radical filter in a conormal lattice."""
    if not is_conormal_lattice(L):
        raise NotConormal(repr(L))
    return lattice_blp_filter(L, radical(L))
