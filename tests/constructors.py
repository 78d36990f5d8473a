"""The textbook algebras of the paper's examples, built from their tables.

Boolean algebras, Goedel and Lukasiewicz chains, the trivial algebra,
direct products and ordinal sums.  No rlx command and no theorem row
builds one: the matrix runs on enumerated algebras, `.rlat` files and
quotients.  The tests, the demos and the README build them here.  Each
goes through `rlx.core.validate`, which checks every axiom exhaustively.
This module imports nothing else of the tests, so a demo can import it
without the oracles.
"""

from rlx.core import validate
from rlx.errors import InvalidArgument


def boolean_algebra(n_atoms):
    """The 2^n_atoms-element Boolean algebra as a residuated lattice.

    Every Boolean algebra residuates in exactly one way: odot = meet and
    a->b = complement(a) | b.
    """
    if n_atoms < 0:
        raise InvalidArgument("n_atoms must be >= 0")
    atoms = [chr(ord("a") + i) for i in range(n_atoms)]
    masks = sorted(range(1 << n_atoms), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n_atoms) - 1

    def name(m):
        if m == 0:
            return "0"
        if m == full:
            return "1"
        return "".join(atoms[i] for i in range(n_atoms) if m >> i & 1)

    labels = [name(m) for m in masks]
    n = len(masks)
    leq = tuple(tuple((masks[i] & masks[j]) == masks[i] for j in range(n))
                for i in range(n))
    meet = tuple(tuple(index[masks[i] & masks[j]] for j in range(n))
                 for i in range(n))
    imp = tuple(tuple(index[(full & ~masks[i]) | masks[j]] for j in range(n))
                for i in range(n))
    return validate(labels, leq, meet, imp)


def _chain_leq(n):
    return tuple(tuple(i <= j for j in range(n)) for i in range(n))


def _chain_labels(n):
    if n == 1:
        return ("0",)
    inner = [f"x{i}" for i in range(1, n - 1)]
    return tuple(["0"] + inner + ["1"])


def godel_chain(n):
    """n-element chain with odot = meet (a Goedel algebra)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    odot = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return validate(_chain_labels(n), _chain_leq(n), odot)


def lukasiewicz_chain(n):
    """n-element MV-chain: i*j = max(0, i+j-(n-1))."""
    if n < 2:
        raise InvalidArgument("n must be >= 2")
    odot = tuple(tuple(max(0, i + j - (n - 1)) for j in range(n))
                 for i in range(n))
    return validate(_chain_labels(n), _chain_leq(n), odot)


def trivial_algebra():
    """The one-element residuated lattice (0 = 1)."""
    return validate(("0",), ((True,),), ((0,),))


def _unique(labels):
    seen = set()
    out = []
    for lbl in labels:
        while lbl in seen:
            lbl += "'"
        seen.add(lbl)
        out.append(lbl)
    return tuple(out)


def direct_product(A, B):
    """Componentwise product; element (i, j) gets id i*|B| + j."""
    nb = B.size

    def pid(i, j):
        return i * nb + j

    labels = _unique(f"{A.labels[i]}.{B.labels[j]}"
                     for i in range(A.size) for j in range(B.size))
    pairs = [(i, j) for i in range(A.size) for j in range(B.size)]
    leq = tuple(
        tuple(A.leq[i1][i2] and B.leq[j1][j2] for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    odot = tuple(
        tuple(pid(A.odot[i1][i2], B.odot[j1][j2]) for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    imp = tuple(
        tuple(pid(A.imp[i1][i2], B.imp[j1][j2]) for (i2, j2) in pairs)
        for (i1, j1) in pairs)
    return validate(labels, leq, odot, imp)


def ordinal_sum(R, C):
    """Stack C strictly above R, gluing 1_R with 0_C.

    Products across the seam: x*y = x for x in R\\{1_R}, y in C.  The
    implication is derived and the result fully validated rather than
    trusted, since the glued monoid need not always residuate.
    """
    if C.size < 2:
        raise InvalidArgument("upper summand must be non-trivial")
    nr, nc = R.size, C.size
    n = nr + nc - 1
    # ids: R keeps 0..nr-1 (top_R is the glue), C\{bot} gets nr..n-1.
    cmap = {}
    nxt = nr
    for j in range(nc):
        if j == C.bot:
            cmap[j] = R.top
        else:
            cmap[j] = nxt
            nxt += 1
    rpart = list(range(nr))
    labels = _unique(list(R.labels)
                     + [C.labels[j] for j in range(nc) if j != C.bot])

    leq = [[False] * n for _ in range(n)]
    for x in rpart:
        for y in rpart:
            leq[x][y] = R.leq[x][y]
    for jx in range(nc):
        for jy in range(nc):
            if C.leq[jx][jy]:
                leq[cmap[jx]][cmap[jy]] = True
    # every R element sits below every C element
    for x in rpart:
        for j in range(nc):
            leq[x][cmap[j]] = True
    for x in rpart:
        leq[x][x] = True

    odot = [[0] * n for _ in range(n)]
    glue = R.top

    def in_r(x):
        return x < nr and x != glue

    def c_of(x):
        # preimage in C of a glued id (glue included)
        if x == glue:
            return C.bot
        return next(j for j in range(nc) if cmap[j] == x)

    for x in range(n):
        for y in range(n):
            if x < nr and y < nr:
                odot[x][y] = R.odot[x][y]
            elif not in_r(x) and not in_r(y):
                odot[x][y] = cmap[C.odot[c_of(x)][c_of(y)]]
            elif in_r(x):
                odot[x][y] = x
            else:
                odot[x][y] = y

    leq = tuple(tuple(row) for row in leq)
    odot = tuple(tuple(row) for row in odot)
    return validate(labels, leq, odot)
