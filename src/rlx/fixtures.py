"""Bundled small algebras used across tests, demos and the CLI fixtures.

`pentagon_godel` is the five-element Goedel algebra on the lozenge-with-top
order; `pentagon_stacked` is the six-element algebra on the pentagon-with-top
order.  Both are classic textbook examples with interesting lifting
behaviour; their operation tables are transcribed verbatim.
"""

from __future__ import annotations

from .core import (
    boolean_algebra,
    glb_table,
    godel_chain,
    leq_from_covers,
    lukasiewicz_chain,
    trivial_algebra,
    validate,
)


def pentagon_godel():
    """Five elements 0 < a,b < c < 1 (a || b), odot = meet.

    Idempotents are everything; the Boolean center is {0, 1}; the radical
    {c, 1} fails Boolean lifting while idempotent lifting holds globally.
    """
    labels = ("0", "a", "b", "c", "1")
    leq = leq_from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    # odot = meet; imp transcribed (rows are x, columns y, entry x->y)
    L = {"0": 0, "a": 1, "b": 2, "c": 3, "1": 4}

    def t(rows):
        return tuple(tuple(L[v] for v in row.split()) for row in rows)

    imp = t([
        "1 1 1 1 1",
        "b 1 b 1 1",
        "a a 1 1 1",
        "0 a b 1 1",
        "0 a b c 1",
    ])
    odot = glb_table(leq)
    return validate(labels, leq, odot, imp)


def pentagon_stacked():
    """Six elements 0 < d < c < a < 1 and 0 < b < a (pentagon plus top).

    Idempotents are {0, a, b, d, 1}; the Boolean center is {0, 1}; the
    regulars are {0, b, c, 1} (!!d = c, !!a = 1).  Idempotent lifting holds
    globally; Boolean lifting fails only at the radical {a, 1}, whose
    quotient is 2x2 with b/{a, 1} not liftable.
    """
    labels = ("0", "a", "b", "c", "d", "1")
    leq = leq_from_covers(6, [(0, 4), (4, 3), (3, 1), (0, 2), (2, 1), (1, 5)])
    L = {"0": 0, "a": 1, "b": 2, "c": 3, "d": 4, "1": 5}

    def t(rows):
        return tuple(tuple(L[v] for v in row.split()) for row in rows)

    odot = t([
        "0 0 0 0 0 0",
        "0 a b d d a",
        "0 b b 0 0 b",
        "0 d 0 d d c",
        "0 d 0 d d d",
        "0 a b c d 1",
    ])
    imp = t([
        "1 1 1 1 1 1",
        "0 1 b c c 1",
        "c 1 1 c c 1",
        "b 1 b 1 a 1",
        "b 1 b 1 1 1",
        "0 a b c d 1",
    ])
    return validate(labels, leq, odot, imp)


FIXTURE_BUILDERS = {
    "trivial": trivial_algebra,
    "b2": lambda: boolean_algebra(1),
    "godel3": lambda: godel_chain(3),
    "luk4": lambda: lukasiewicz_chain(4),
    "pentagon_godel": pentagon_godel,
    "pentagon_stacked": pentagon_stacked,
}
