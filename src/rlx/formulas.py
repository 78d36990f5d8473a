"""Equational formulas over the residuated-lattice signature.

Grammar (one formula per string):

    formula := ["exists" IDENT+ "."] eq ("&&" eq)*
    eq      := term "=" term
    term    := binary operators over atoms, parenthesized freely

Operator binding, tightest first: ^k (postfix power), ! (negation),
* (product), & (meet), | (join), -> (right-associative), <->.
Atoms: the free variable, exists-bound witnesses, constants 0 and 1.
Names of the shape w<digits> are reserved for bound witnesses and must be
declared in the exists prefix.
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


class FreeVar(Record):
    def __init__(self, name: str):
        self._set("name", name)


class BoundVar(Record):
    def __init__(self, name: str):
        self._set("name", name)


class Const(Record):
    def __init__(self, value: int):  # 0 or 1
        self._set("value", value)


class BinOp(Record):
    def __init__(self, op: str,  # "|", "&", "*", "->", "<->"
                 lhs: object, rhs: object):
        self._set("op", op)
        self._set("lhs", lhs)
        self._set("rhs", rhs)


class Neg(Record):
    def __init__(self, arg: object):
        self._set("arg", arg)


class Pow(Record):
    def __init__(self, arg: object, exponent: int):
        self._set("arg", arg)
        self._set("exponent", exponent)


class Formula(Record):
    def __init__(self, bound_vars: tuple,
                 equations: tuple,  # of (lhs, rhs) term pairs
                 free_var: str):
        self._set("bound_vars", bound_vars)
        self._set("equations", equations)
        self._set("free_var", free_var)


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow><->|->)
  | (?P<op>[|&*!^()=.])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        if text.startswith("&&", i):
            tokens.append(("&&", "&&", i))
            i += 2
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, value=None):
        kind, text, where = self.tokens[self.pos]
        if value is not None and text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text!r}", where)
        self.pos += 1
        return kind, text, where

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
        free = self._free_names(equations, bound)
        if len(free) > 1:
            raise MultipleFreeVariables(sorted(free))
        free_var = free.pop() if free else "v"
        return Formula(tuple(bound), tuple(equations), free_var)

    def _free_names(self, equations, bound):
        names = set()

        def walk(t):
            if isinstance(t, FreeVar):
                names.add(t.name)
            elif isinstance(t, (BinOp,)):
                walk(t.lhs)
                walk(t.rhs)
            elif isinstance(t, Neg):
                walk(t.arg)
            elif isinstance(t, Pow):
                walk(t.arg)

        for lhs, rhs in equations:
            walk(lhs)
            walk(rhs)
        return names

    def equation(self, bound):
        lhs = self.term(bound)
        self.take("=")
        rhs = self.term(bound)
        return (lhs, rhs)

    # precedence ladder
    def term(self, bound):
        return self.bires(bound)

    def bires(self, bound):
        node = self.impl(bound)
        while self.peek()[1] == "<->":
            self.take()
            node = BinOp("<->", node, self.impl(bound))
        return node

    def impl(self, bound):
        node = self.joins(bound)
        if self.peek()[1] == "->":
            self.take()
            return BinOp("->", node, self.impl(bound))
        return node

    def joins(self, bound):
        node = self.meets(bound)
        while self.peek()[1] == "|":
            self.take()
            node = BinOp("|", node, self.meets(bound))
        return node

    def meets(self, bound):
        node = self.prods(bound)
        while self.peek()[1] == "&":
            self.take()
            node = BinOp("&", node, self.prods(bound))
        return node

    def prods(self, bound):
        node = self.unary(bound)
        while self.peek()[1] == "*":
            self.take()
            node = BinOp("*", node, self.unary(bound))
        return node

    def unary(self, bound):
        kind, text, where = self.peek()
        if text == "!":
            self.take()
            return Neg(self.unary(bound))
        return self.postfix(bound)

    def postfix(self, bound):
        node = self.atom(bound)
        while self.peek()[1] == "^":
            _, _, where = self.take()
            kind, text, nwhere = self.take()
            if kind != "num":
                raise FormulaSyntaxError("power wants a number", nwhere)
            k = int(text)
            if k > MAX_POWER:
                raise FormulaSyntaxError(f"exponent above {MAX_POWER}", nwhere)
            node = Pow(node, k)
        return node

    def atom(self, bound):
        kind, text, where = self.take()
        if text == "(":
            node = self.term(bound)
            self.take(")")
            return node
        if kind == "num":
            if text in ("0", "1"):
                return Const(int(text))
            raise FormulaSyntaxError(f"no constant {text!r}", where)
        if kind == "ident":
            if text in bound:
                return BoundVar(text)
            if re.fullmatch(r"w\d+", text):
                raise UnboundVariable(text)
            return FreeVar(text)
        raise FormulaSyntaxError(f"unexpected token {text!r}", where)


def parse_formula(text):
    return _Parser(text).parse()


def _term_str(t, required=0):
    # binding levels: <-> 1, -> 2, | 3, & 4, * 5, ! 6, ^ 7, atoms 8
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
    levels = {"<->": 1, "->": 2, "|": 3, "&": 4, "*": 5}
    lv = levels[t.op]
    right_assoc = t.op == "->"
    lhs = _term_str(t.lhs, lv + (1 if right_assoc else 0))
    rhs = _term_str(t.rhs, lv + (0 if right_assoc else 1))
    s = f"{lhs} {t.op} {rhs}"
    return f"({s})" if lv < required else s


def format_formula(phi):
    eqs = " && ".join(f"{_term_str(l)} = {_term_str(r)}" for l, r in phi.equations)
    if phi.bound_vars:
        return f"exists {' '.join(phi.bound_vars)} . {eqs}"
    return eqs


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
    table = {"|": A.join, "&": A.meet, "*": A.odot, "->": A.imp}[t.op]
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
    for combo in itertools.product(range(n), repeat=len(phi.bound_vars)):
        env = dict(zip(phi.bound_vars, combo))
        here = {e: full for e in idempotents if masks[e] != full}
        for lhs, rhs in phi.equations:
            if not here:
                break
            pairs = list(zip(term_values(A, lhs, env), term_values(A, rhs, env)))
            for e in list(here):
                row = A.odot[e]
                m = here[e] & sum(1 << a for a, (x, y) in enumerate(pairs)
                                  if row[x] == row[y])
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


@lru_cache(maxsize=None)
def blp_formula():
    return parse_formula("v | !v = 1")


@lru_cache(maxsize=None)
def ilp_formula():
    return parse_formula("v^2 = v")


@lru_cache(maxsize=None)
def rlp_formula():
    return parse_formula("v = !!v")
