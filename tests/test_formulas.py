import pytest
from hypothesis import given, settings, strategies as st

from rlx.core import classify
from rlx.errors import (
    FormulaSyntaxError,
    MultipleFreeVariables,
    NotAtomic,
    UnboundVariable,
)
from rlx.filters import all_filters, quotient
from rlx.formulas import (
    _definable_masks,
    MAX_DEPTH,
    MAX_TERM_DEPTH,
    BinOp,
    BoundVar,
    Const,
    FreeVar,
    Neg,
    Pow,
    atomic_parts,
    blp_formula,
    definable_set,
    format_formula,
    ilp_formula,
    parse_formula,
    rlp_formula,
    term_values,
)
from rlx.lifting import has_phi_lp

from constructors import boolean_algebra, godel_chain, lukasiewicz_chain
from oracles import quotient_filter_verdict, satisfies


def test_parse_blp_shape():
    phi = parse_formula("v | !v = 1")
    assert phi.bound_vars == ()
    assert phi.free_var == "v"
    (lhs, rhs), = phi.equations
    assert lhs == BinOp("|", FreeVar("v"), Neg(FreeVar("v")))
    assert rhs == Const(1)


def test_parse_ilp_power():
    phi = parse_formula("v^2 = v")
    (lhs, rhs), = phi.equations
    assert lhs == Pow(FreeVar("v"), 2)


def test_parse_exists_boolean_pair():
    phi = parse_formula("exists w . v | w = 1 && v & w = 0")
    assert phi.bound_vars == ("w",)
    assert len(phi.equations) == 2
    (l1, r1), (l2, r2) = phi.equations
    assert l1 == BinOp("|", FreeVar("v"), BoundVar("w"))
    assert l2 == BinOp("&", FreeVar("v"), BoundVar("w"))


def test_precedence_product_binds_tighter_than_meet_than_join():
    phi = parse_formula("v | v & v * v = v")
    (lhs, _), = phi.equations
    assert lhs == BinOp("|", FreeVar("v"),
                        BinOp("&", FreeVar("v"),
                              BinOp("*", FreeVar("v"), FreeVar("v"))))


def test_implication_right_associative():
    phi = parse_formula("v -> v -> 0 = 1")
    (lhs, _), = phi.equations
    assert lhs == BinOp("->", FreeVar("v"),
                        BinOp("->", FreeVar("v"), Const(0)))


# binding levels, loosest first, as the module docstring lists them
BINARY_LEVELS = {"<->": 1, "->": 2, "|": 3, "&": 4, "*": 5}


@pytest.mark.parametrize("op1", sorted(BINARY_LEVELS))
@pytest.mark.parametrize("op2", sorted(BINARY_LEVELS))
def test_every_operator_pair_groups_by_precedence(op1, op2):
    """v op1 v op2 v groups by the documented levels, -> to the right and
    the rest to the left; it prints back unchanged, and the other grouping
    prints with parentheses and parses back equal."""
    v = FreeVar("v")
    left = BinOp(op2, BinOp(op1, v, v), v)
    right = BinOp(op1, v, BinOp(op2, v, v))
    l1, l2 = BINARY_LEVELS[op1], BINARY_LEVELS[op2]
    groups_right = l1 < l2 or (l1 == l2 and op1 == "->")
    text = f"v {op1} v {op2} v = 1"
    phi = parse_formula(text)
    assert phi.equations == (((right if groups_right else left), Const(1)),)
    assert format_formula(phi) == text
    other = (f"(v {op1} v) {op2} v = 1" if groups_right
             else f"v {op1} (v {op2} v) = 1")
    forced = parse_formula(other)
    assert forced.equations == (((left if groups_right else right), Const(1)),)
    assert format_formula(forced) == other
    assert parse_formula(format_formula(forced)) == forced


def test_negation_is_implication_to_zero():
    A = godel_chain(3)
    neg = parse_formula("!v = 0")
    imp = parse_formula("v -> 0 = 0")
    assert definable_set(A, neg) == definable_set(A, imp)


def test_biresiduum_matches_definition():
    A = godel_chain(4)
    phi = parse_formula("v <-> 1 = v")
    (lhs, _), = phi.equations
    for a in A.elements():
        direct = A.bires(a, A.top)
        assert term_values(A, lhs, {})[a] == direct


def test_pow_zero_is_top():
    A = godel_chain(3)
    phi = parse_formula("v^0 = 1")
    assert definable_set(A, phi) == frozenset(A.elements())


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("v | = 1")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("v @ v = 1")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("v = 2")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("v^99 = v")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists . v = v")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("v = v extra")


@pytest.mark.parametrize("text, position", [
    ("(" * 400 + "v" + ")" * 400 + " = v", MAX_DEPTH),
    ("!" * 600 + "v = v", MAX_DEPTH),
    ("v" + " -> v" * 600 + " = 1", 2 + 5 * MAX_DEPTH),
    ("v -> " * 50 + "!" * 51 + "v = 1", 5 * 50 + 50),
])
def test_nesting_deeper_than_the_bound_is_a_syntax_error(text, position):
    """Each "(", "!" and right-nested "->" opens a level; the token that
    opens level MAX_DEPTH + 1 is the error's position."""
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.position == position
    assert f"nested deeper than {MAX_DEPTH}" in str(err.value)


# formulas nested exactly MAX_DEPTH deep, each with its printed form
AT_THE_BOUND = [
    ("(" * MAX_DEPTH + "v" + ")" * MAX_DEPTH + " = v", "v = v"),
    ("!" * MAX_DEPTH + "v = v", "!" * MAX_DEPTH + "v = v"),
    ("v" + " -> v" * MAX_DEPTH + " = 1", "v" + " -> v" * MAX_DEPTH + " = 1"),
    ("v -> " * 50 + "!" * 50 + "v = 1", "v -> " * 50 + "!" * 50 + "v = 1"),
]


@pytest.mark.parametrize("text, printed", AT_THE_BOUND)
def test_nesting_at_the_bound_parses_and_prints_back(text, printed):
    phi = parse_formula(text)
    assert format_formula(phi) == printed
    assert parse_formula(printed) == phi


# links of chains that open no level: each is one operator deeper
CHAIN_LINKS = [(f" {op} v", " = 1") for op in ("|", "&", "*", "<->")]
CHAIN_LINKS.append(("^1", " = v"))
CHAIN_IDS = ["|", "&", "*", "<->", "^1"]


@pytest.mark.parametrize("link, tail", CHAIN_LINKS, ids=CHAIN_IDS)
def test_chains_deeper_than_the_term_bound_are_a_syntax_error(link, tail):
    """500 operators in a row; the operator that builds a term
    MAX_TERM_DEPTH + 1 deep is the error's position."""
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("v" + link * 500 + tail)
    indent = len(link) - len(link.lstrip())
    assert err.value.position == 1 + MAX_TERM_DEPTH * len(link) + indent
    assert f"term deeper than {MAX_TERM_DEPTH}" in str(err.value)


@pytest.mark.parametrize("text", [
    *("v" + link * MAX_TERM_DEPTH + tail for link, tail in CHAIN_LINKS),
    # 98 negations over a power over a 101-link chain, in the deepest level
    "!" * 98 + "(v" + " | v" * 101 + ")^1 = v",
], ids=CHAIN_IDS + ["nested"])
def test_terms_at_the_term_bound_parse_print_back_and_evaluate(text):
    phi = parse_formula(text)
    assert format_formula(phi) == text
    assert parse_formula(text) == phi
    assert hash(parse_formula(text)) == hash(phi)
    assert definable_set(boolean_algebra(2), phi) is not None


def test_unbound_witness_style_variable():
    with pytest.raises(UnboundVariable):
        parse_formula("exists w1 . v | w2 = 1")


def test_multiple_free_variables():
    with pytest.raises(MultipleFreeVariables):
        parse_formula("x | y = 1")


def test_constant_formula_defaults_free_var():
    phi = parse_formula("1 = 1")
    assert phi.free_var == "v"
    A = godel_chain(3)
    assert definable_set(A, phi) == frozenset(A.elements())


def test_definable_sets_match_classify(E1, E2):
    for A in (E1, E2):
        cls = classify(A)
        assert definable_set(A, blp_formula()) == cls.boolean_center
        assert definable_set(A, ilp_formula()) == cls.idempotents
        assert definable_set(A, rlp_formula()) == cls.regulars


def test_definable_set_golden(E1, E2):
    lbl1 = {E1.labels[x] for x in definable_set(E1, blp_formula())}
    assert lbl1 == {"0", "1"}
    reg2 = {E2.labels[x] for x in definable_set(E2, parse_formula("v=!!v"))}
    assert reg2 == {"0", "b", "c", "1"}
    assert definable_set(E1, parse_formula("v=v")) == frozenset(E1.elements())


def test_boolean_pair_formula_matches_center(corpus4):
    phi = parse_formula("exists w . v | w = 1 && v & w = 0")
    for A in corpus4:
        assert definable_set(A, phi) == classify(A).boolean_center


# between them: bound variables, <->, ^k, both constants, several equations
ORACLE_FORMULAS = (
    "v | !v = 1",
    "v^2 = v",
    "v = !!v",
    "0 = 1",
    "exists w1 . v = w1 * w1",
    "exists w1 w2 . v <-> w1 = w2^2 && w1 | w2 = 1",
    "exists w . (v -> w) & (w -> v) = 1 && !w = 0",
    "v^3 -> 0 = !v && 1 & v = v",
    "exists w1 . v * w1 = 0 && v | w1 = 1 && w1^2 <-> 1 = w1",
)


def _oracle_set(A, phi):
    return frozenset(a for a in A.elements() if satisfies(A, phi, a))


def _oracle_masks(A, phi):
    """For each idempotent e, the elements whose class satisfies phi in
    the built quotient A/[e), as a bitmask; 0 at the other elements."""
    masks = [0] * A.size
    for F in all_filters(A):
        Q = quotient(A, F)
        held = _oracle_set(Q.quotient, phi)
        masks[F] = sum(1 << a for a in A.elements()
                           if Q.class_of[a] in held)
    return tuple(masks)


def test_definable_set_matches_per_element_oracle(corpus5):
    for text in ORACLE_FORMULAS:
        phi = parse_formula(text)
        for A in corpus5:
            assert definable_set(A, phi) == _oracle_set(A, phi), (text, A)
            assert _definable_masks(A, phi) == _oracle_masks(A, phi), (text, A)


def test_atomic_parts():
    t1, t2 = atomic_parts(ilp_formula())
    assert t1 == Pow(FreeVar("v"), 2) and t2 == FreeVar("v")
    with pytest.raises(NotAtomic):
        atomic_parts(parse_formula("exists w . v | w = 1"))
    with pytest.raises(NotAtomic):
        atomic_parts(parse_formula("v = v && v = v"))


# --- randomized round-trip ---------------------------------------------------

_leaf = st.sampled_from([FreeVar("v"), BoundVar("w1"), Const(0), Const(1)])


def _terms(depth):
    if depth == 0:
        return _leaf
    sub = _terms(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(min_value=0, max_value=9)),
        st.builds(BinOp, st.sampled_from(["|", "&", "*", "->", "<->"]), sub, sub),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_terms(3), _terms(3)), min_size=1, max_size=3))
def test_print_parse_round_trip(eqs):
    from rlx.formulas import Formula

    phi = Formula(("w1",), tuple(eqs), "v")
    text = format_formula(phi)
    back = parse_formula(text)
    assert back.equations == phi.equations
    assert back.bound_vars == phi.bound_vars


@settings(max_examples=100, deadline=None)
@given(st.tuples(_terms(3), _terms(3)))
def test_round_trip_preserves_semantics(eq):
    from rlx.formulas import Formula

    A = boolean_algebra(1)
    phi = Formula(("w1",), (eq,), "v")
    back = parse_formula(format_formula(phi))
    assert definable_set(A, phi) == definable_set(A, back)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_terms(3), _terms(3)), min_size=1, max_size=3))
def test_definable_set_matches_oracle_on_random_formulas(eqs):
    from rlx.formulas import Formula

    phi = Formula(("w1",), tuple(eqs), "v")
    for A in (godel_chain(3), lukasiewicz_chain(4), boolean_algebra(2)):
        assert definable_set(A, phi) == _oracle_set(A, phi)
        assert _definable_masks(A, phi) == _oracle_masks(A, phi)
        for F in all_filters(A):
            holds, verdict = has_phi_lp(A, phi, F)
            assert (holds, verdict.counterexample, verdict.witness) == \
                quotient_filter_verdict(A, phi, F)
