"""Equational formulas over the residuated-lattice signature.

Grammar (one formula per string):

    formula := ["exists" IDENT+ "."] eq ("&&" eq)*
    eq      := term "=" term
    term    := binary operators over atoms, nested at most MAX_DEPTH deep

Operator binding, tightest first: ^k (postfix power), ! (negation),
* (product), & (meet), | (join), -> (right-associative), <->; the other
binary operators group to the left.  `_LEVELS` is the one source of the
binary operators' precedence: the parser and the printer both read it.
Each "(", "!" and right-nested "->" opens a level, one recursion of the
parser; the token that opens level MAX_DEPTH + 1 is a syntax error.
A chain such as v | v | ... | v opens no level but nests one operator per
link, and every walk of a term recurses per operator: the operator that
builds a term MAX_TERM_DEPTH + 1 deep is a syntax error too.
Atoms: the free variable, exists-bound witnesses, constants 0 and 1.
Names of the shape w<digits> are reserved for bound witnesses and must be
declared in the exists prefix.  The named formulas, `NAMED_FORMULAS`, are
parsed once, at import: `blp_formula()` and its siblings return those
objects.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from .core import Record
from .errors import (
    FormulaSyntaxError,
    MultipleFreeVariables,
    NotAtomic,
    UnboundVariable,
)

MAX_POWER = 31
MAX_DEPTH = 100
MAX_TERM_DEPTH = 2 * MAX_DEPTH


class FreeVar(Record):
    __slots__ = ("name",)


class BoundVar(Record):
    __slots__ = ("name",)


class Const(Record):
    __slots__ = ("value",)  # 0 or 1


class BinOp(Record):
    __slots__ = ("op", "lhs", "rhs")  # op: "|", "&", "*", "->" or "<->"


class Neg(Record):
    __slots__ = ("arg",)


class Pow(Record):
    __slots__ = ("arg", "exponent")


class Formula(Record):
    """A parsed formula: `equations` is a tuple of (lhs, rhs) term pairs.
    Formulas key the per-algebra caches of definable sets, so the hash of
    the field tuple is computed once, here, instead of re-hashing the
    whole term tree on each lookup.  The stored hash follows from the
    fields, so the base's equality still holds."""

    __slots__ = ("bound_vars", "equations", "free_var", "_hash")

    def __init__(self, bound_vars: tuple, equations: tuple, free_var: str):
        super().__init__(bound_vars, equations, free_var,
                         hash((bound_vars, equations, free_var)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Formula(bound_vars={self.bound_vars!r}, "
                f"equations={self.equations!r}, free_var={self.free_var!r})")


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<op>&&|<->|->|[|&*!^()=.])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

# Binding level of each binary operator, loosest first.
_LEVELS = {"<->": 1, "->": 2, "|": 3, "&": 4, "*": 5}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.free = set()  # free variable names, collected by `atom`

    def peek(self):
        return self.tokens[self.pos]

    def take(self, value=None):
        kind, text, where = self.tokens[self.pos]
        if value is not None and text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text!r}", where)
        self.pos += 1
        return kind, text, where

    def deeper(self, depth, where):
        """The depth of the level that the token at `where` opens."""
        if depth == MAX_DEPTH:
            raise FormulaSyntaxError(f"nested deeper than {MAX_DEPTH}", where)
        return depth + 1

    def built(self, node, height, where):
        """`node`, built at `where` on operands `height` deep, and its height."""
        if height == MAX_TERM_DEPTH:
            raise FormulaSyntaxError(f"term deeper than {MAX_TERM_DEPTH}", where)
        return node, height + 1

    def parse(self):
        bound = []
        kind, text, where = self.peek()
        if kind == "ident" and text == "exists":
            self.take()
            while True:
                kind, text, where = self.peek()
                if kind == "ident":
                    if text in bound:
                        raise FormulaSyntaxError(f"duplicate witness {text!r}", where)
                    bound.append(text)
                    self.take()
                elif text == ".":
                    if not bound:
                        raise FormulaSyntaxError("empty exists prefix", where)
                    self.take()
                    break
                else:
                    raise FormulaSyntaxError("expected witness name or '.'", where)
        equations = [self.equation(bound)]
        while self.peek()[1] == "&&":
            self.take()
            equations.append(self.equation(bound))
        kind, text, where = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"trailing input {text!r}", where)
        if len(self.free) > 1:
            raise MultipleFreeVariables(sorted(self.free))
        free_var = self.free.pop() if self.free else "v"
        return Formula(tuple(bound), tuple(equations), free_var)

    def equation(self, bound):
        lhs = self.term(bound)[0]
        self.take("=")
        rhs = self.term(bound)[0]
        return (lhs, rhs)

    def term(self, bound, level=1, depth=0):
        """A term whose binary operators all bind at `level` or tighter,
        by precedence climbing over `_LEVELS`, with its height (`built`)."""
        node, height = self.unary(bound, depth)
        while _LEVELS.get(self.peek()[1], 0) >= level:
            _, op, where = self.take()
            lv = _LEVELS[op]
            rhs, rh = (self.term(bound, lv, self.deeper(depth, where))
                       if op == "->" else self.term(bound, lv + 1, depth))
            node, height = self.built(BinOp(op, node, rhs),
                                      max(height, rh), where)
        return node, height

    def unary(self, bound, depth):
        if self.peek()[1] == "!":
            where = self.take()[2]
            arg, height = self.unary(bound, self.deeper(depth, where))
            return self.built(Neg(arg), height, where)
        node, height = self.atom(bound, depth)
        while self.peek()[1] == "^":
            where = self.take()[2]
            kind, text, nwhere = self.take()
            if kind != "num":
                raise FormulaSyntaxError("power wants a number", nwhere)
            k = int(text)
            if k > MAX_POWER:
                raise FormulaSyntaxError(f"exponent above {MAX_POWER}", nwhere)
            node, height = self.built(Pow(node, k), height, where)
        return node, height

    def atom(self, bound, depth):
        kind, text, where = self.take()
        if text == "(":
            node = self.term(bound, 1, self.deeper(depth, where))
            self.take(")")
            return node
        if kind == "num":
            if text in ("0", "1"):
                return Const(int(text)), 0
            raise FormulaSyntaxError(f"no constant {text!r}", where)
        if kind == "ident":
            if text in bound:
                return BoundVar(text), 0
            if re.fullmatch(r"w\d+", text):
                raise UnboundVariable(text)
            self.free.add(text)
            return FreeVar(text), 0
        raise FormulaSyntaxError(f"unexpected token {text!r}", where)


def parse_formula(text):
    return _Parser(text).parse()


def _term_str(t, required=0):
    # binding levels: _LEVELS for the binary operators, ! 6, ^ 7, atoms 8
    if isinstance(t, (FreeVar, BoundVar)):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Neg):
        s = "!" + _term_str(t.arg, 6)
        return f"({s})" if required > 6 else s
    if isinstance(t, Pow):
        s = _term_str(t.arg, 7) + f"^{t.exponent}"
        return f"({s})" if required > 7 else s
    lv = _LEVELS[t.op]
    right_assoc = t.op == "->"
    lhs = _term_str(t.lhs, lv + right_assoc)
    rhs = _term_str(t.rhs, lv + (not right_assoc))
    s = f"{lhs} {t.op} {rhs}"
    return f"({s})" if lv < required else s


def format_formula(phi):
    eqs = " && ".join(f"{_term_str(l)} = {_term_str(r)}" for l, r in phi.equations)
    if phi.bound_vars:
        return f"exists {' '.join(phi.bound_vars)} . {eqs}"
    return eqs


# The table of each binary operator but <->, by attribute name.
_TABLES = {"|": "join", "&": "meet", "*": "odot", "->": "imp"}


def term_values(A, t, env):
    """Values of a term at every element as the free variable, in id order,
    with bound-var assignment `env`."""
    if isinstance(t, FreeVar):
        return range(A.size)
    if isinstance(t, BoundVar):
        return [env[t.name]] * A.size
    if isinstance(t, Const):
        return [A.bot if t.value == 0 else A.top] * A.size
    if isinstance(t, Neg):
        imp, bot = A.imp, A.bot
        return [imp[x][bot] for x in term_values(A, t.arg, env)]
    if isinstance(t, Pow):
        return [A.power(x, t.exponent) for x in term_values(A, t.arg, env)]
    pairs = zip(term_values(A, t.lhs, env), term_values(A, t.rhs, env))
    if t.op == "<->":
        imp, meet = A.imp, A.meet
        return [meet[imp[x][y]][imp[y][x]] for x, y in pairs]
    table = getattr(A, _TABLES[t.op])
    return [table[x][y] for x, y in pairs]


@lru_cache(maxsize=None)
def _definable_masks(A, phi):
    """For each idempotent e, the bitmask of {a : A/[e) |= phi(a/[e))};
    0 at the other elements.

    x/[e) = y/[e) iff e*x = e*y, and A -> A/[e) is onto and commutes with
    every term, so a satisfies phi modulo [e) iff some witnesses in A make
    e*lhs = e*rhs in every equation.  Each term is evaluated once per
    bound-variable assignment, for every value of the free variable at
    once; the search over assignments stops as soon as every element holds
    modulo every filter.  Bitmasks, not frozensets, are cached: they keep
    the cache small.
    """
    n = A.size
    full = (1 << n) - 1
    masks = [0] * n
    idempotents = [e for e in A.elements() if A.odot[e][e] == e]
    combos = (itertools.product(range(n), repeat=len(phi.bound_vars))
              if phi.bound_vars else ((),))
    for combo in combos:
        env = dict(zip(phi.bound_vars, combo))
        here = {e: full for e in idempotents if masks[e] != full}
        for lhs, rhs in phi.equations:
            if not here:
                break
            pairs = list(zip(term_values(A, lhs, env), term_values(A, rhs, env)))
            for e in list(here):
                row = A.odot[e]
                m = here[e]
                for a, (x, y) in enumerate(pairs):
                    if row[x] != row[y]:
                        m &= ~(1 << a)
                if m:
                    here[e] = m
                else:
                    del here[e]
        for e, m in here.items():
            masks[e] |= m
        if all(masks[e] == full for e in idempotents):
            break
    return tuple(masks)


def definable_set(A, phi):
    """{a : A |= phi(a)} as a frozenset of element ids: the entry of
    :func:`_definable_masks` at e = top."""
    mask = _definable_masks(A, phi)[A.top]
    return frozenset(a for a in A.elements() if mask >> a & 1)


def atomic_parts(phi):
    """(t1, t2) when phi is one bound-variable-free equation; NotAtomic else."""
    if phi.bound_vars or len(phi.equations) != 1:
        raise NotAtomic(format_formula(phi))
    return phi.equations[0]


# The formulas of the named lifting properties: Boolean, idempotent and
# regular elements.  `rlx lp --blp|--ilp|--rlp` and the theorem matrix
# both read this table.
NAMED_FORMULAS = {
    "blp": "v | !v = 1",
    "ilp": "v^2 = v",
    "rlp": "v = !!v",
}

_PARSED = {name: parse_formula(text) for name, text in NAMED_FORMULAS.items()}


def blp_formula():
    return _PARSED["blp"]


def ilp_formula():
    return _PARSED["ilp"]


def rlp_formula():
    return _PARSED["rlp"]
