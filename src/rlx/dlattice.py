"""Bounded distributive lattices as Heyting algebras: validation, lattice
BLP, (co)normality read off least covers, and conormal radical lifting.

A finite bounded distributive lattice is a residuated lattice with
odot = meet, so its filters, spectra, quotients and radical are the ones
of `rlx.filters`, and its Boolean center that of `core.classify`.
"""

from functools import lru_cache

from .core import (
    _normalized,
    _validate_lattice,
    classify,
    distributivity_witness,
    validate,
)
from .errors import NotConormal, NotDistributive
from .filters import all_filters, quotient, radical


def validate_bdl(labels, leq):
    """Bounded lattice with exhaustive distributivity check, returned as the
    Heyting algebra on it (odot = meet).

    The algebra is built once per normalized order
    (:func:`_heyting_algebra`), so the reticulations and filter lattices
    of the matrix, which repeat a few orders, are validated once each;
    other labels are put on its tables by `validate`, whose stages are
    memo hits.  A failure is never stored, so NotDistributive and
    AxiomViolation raise on every call."""
    labels, leq = _normalized(labels, leq)
    L = _heyting_algebra(leq)
    return L if labels is L.labels else validate(labels, L.leq, L.meet)


@lru_cache(maxsize=None)
def _heyting_algebra(leq):
    """The Heyting algebra on a normalized order, showing its ids.  The
    O(n^3) distributivity scan is memoized by the order
    (:func:`rlx.core.distributivity_witness`), for `classify` too."""
    # the memos keep the order `_validate_lattice` holds, not this copy
    leq, _, _, _, meet = _validate_lattice(leq)[:5]
    witness = distributivity_witness(leq)
    if witness is not None:
        raise NotDistributive(witness)
    return validate(None, leq, meet)


@lru_cache(maxsize=None)
def _lattice_blp_failures(L):
    """The bitmask of the e whose [e) fails B(L/[e)) inside B(L)/[e),
    decided on each quotient, apart from the algebra's lifting mask: a
    reticulation is one lattice per order, so each is decided once."""
    B, failures = classify(L).boolean_center, 0
    for f in all_filters(L):
        Q = quotient(L, f)
        lifted = {Q.class_of[e] for e in B}
        if not classify(Q.quotient).boolean_center <= lifted:
            failures |= 1 << f
    return failures


def lattice_blp_filter(L, f):
    """Does F = [f) lift Boolean elements: B(L/F) inside B(L)/F?"""
    return not _lattice_blp_failures(L) >> f & 1


def lattice_blp(L):
    """Per-filter Boolean lifting, by generator, and the conjunction."""
    failures = _lattice_blp_failures(L)
    return {f: not failures >> f & 1 for f in all_filters(L)}, not failures


@lru_cache(maxsize=None)
def is_normal_lattice(L):
    """x|y=1 always splits: some u,v with u&v=0, u|x=v|y=1.

    The filter lattices and reticulations of different algebras repeat
    each other's tables, so it is kept once per table pair, as is
    `is_conormal_lattice`."""
    return _split_witness(L.elements(), L.join, L.meet, L.top, L.bot) is None


@lru_cache(maxsize=None)
def is_conormal_lattice(L):
    """The order dual: x&y=0 always splits as some u|v=1, u&x=v&y=0."""
    return _split_witness(L.elements(), L.meet, L.join, L.bot, L.top) is None


def _split_witness(els, join, meet, top, bot):
    """The first pair x, y with x|y = top that no u, v with u&v = bot and
    u|x = v|y = top splits, or None.

    As (u&w)|x = (u|x)&(w|x), {u : u|x = top} is closed under meets and
    has a least element s[x]; the pair splits iff s[x]&s[y] = bot."""
    s = dict.fromkeys(els, top)
    for x in els:
        for u in els:
            if join[u][x] == top:
                s[x] = meet[s[x]][u]
    return next(((x, y) for x in els for y in els
                 if join[x][y] == top and meet[s[x]][s[y]] != bot), None)


def conormal_radical_lifting(L):
    """Boolean lifting of the radical filter in a conormal lattice."""
    if not is_conormal_lattice(L):
        raise NotConormal(repr(L))
    return lattice_blp_filter(L, radical(L))
