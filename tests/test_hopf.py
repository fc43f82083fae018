"""Tensor algebra, Hopf costructures, dual pairing and actions."""

import dataclasses
import random
from fractions import Fraction

import pytest

from qsp.algebra import TH, X, CalculusType, Element, build_rule_table, mono, mono_letters
from qsp.hopf import (
    TensorElement,
    UElement,
    antipode_A,
    antipode_U_residuals,
    coordinate_basis,
    coproduct_A,
    coproduct_U_residuals,
    costructures_W,
    counit_A,
    expand_derived,
    hopf_axiom_check,
    left_act,
    maurer_forms,
    pair,
    tensor_multiply,
    twisted_leibniz_grid,
    u_antipode,
    u_coproduct_key,
    u_coproduct_square_nabla,
    u_key_parity,
    w_antipode_residuals,
    w_relation_residuals,
)


@pytest.fixture(scope="module")
def t2():
    return build_rule_table(CalculusType.type_ii())


# A reference for the dual sector that shares no code with ``left_act``: the
# pairing <u, a_1 ... a_n> folds the letters of the word left to right,
# pairing a_i with the first coproduct factor of the pending key and keeping
# the second, and the key left over pairs with the empty word as the counit.

def _pair_letter(rt, k, letter):
    (g, s), (a, b, n) = letter, k
    assert g in (X, TH)
    if (g == TH) != bool(n):
        return rt.params.zero()
    return (rt.ct.Q ** (a * s)) * (rt.ct.Q11 ** (b * s))


def _pair_fold(rt, u, e):
    P = rt.params
    total = P.zero()
    for k, cu in u.terms.items():
        for m, cm in e.terms.items():
            pending = {k: P.one()}
            for letter in mono_letters(m):
                nxt = {}
                for key, acc in pending.items():
                    for k1, k2, sgn in u_coproduct_key(key):
                        # an odd k2 crosses an odd letter
                        if u_key_parity(k2) and letter[0] == TH:
                            sgn = -sgn
                        c = _pair_letter(rt, k1, letter)
                        c = c if sgn > 0 else -c
                        nxt[k2] = nxt.get(k2, P.zero()) + acc * c
                pending = nxt
            for key, acc in pending.items():
                if not key[2]:
                    total = total + cu * cm * acc
    return total


def _left_act_fold(rt, u, e):
    """U[a] = a_(1) <u, a_(2)> with the folded pairing."""
    P = rt.params
    out = Element.zero(P)
    for (m1, m2), c in coproduct_A(rt, e).terms.items():
        out = out + Element.monomial(P, m1, c * _pair_fold(rt, u, Element.monomial(P, m2)))
    return out


def test_koszul_signs(t2):
    P = t2.params
    one = Element.one(P)
    th = t2.word("th")
    a = TensorElement.of(th, one)
    b = TensorElement.of(one, th)
    thth = TensorElement.of(th, th)
    assert tensor_multiply(t2, a, b) == thth
    assert tensor_multiply(t2, b, a) == thth.scale(-1)


def test_tensor_multiply_normalizes_slots(t2):
    a = TensorElement.of(t2.word("x"), t2.word("x"))
    b = TensorElement.of(t2.word("th"), t2.word("x"))
    assert tensor_multiply(t2, a, b) == TensorElement.of(t2.word("x", "th"), t2.word("x", "x"))


def test_tensor_unit(t2):
    a = TensorElement.of(t2.word("x"), t2.word("th"))
    assert tensor_multiply(t2, TensorElement.unit(t2.params, 2), a) == a


def test_koszul_associativity_random(t2):
    rng = random.Random(321)
    P = t2.params
    pool = [t2.word("x"), t2.word("th"), t2.word("x", "th"),
            t2.word(("x", -1)), Element.one(P)]
    for _ in range(25):
        tensors = [TensorElement.of(pool[rng.randrange(len(pool))],
                                    pool[rng.randrange(len(pool))])
                   for _ in range(3)]
        a, b, c = tensors
        lhs = tensor_multiply(t2, tensor_multiply(t2, a, b), c)
        rhs = tensor_multiply(t2, a, tensor_multiply(t2, b, c))
        assert lhs == rhs


def test_coproduct_examples(t2):
    P = t2.params
    assert coproduct_A(t2, t2.word("x")) == TensorElement.of(t2.word("x"), t2.word("x"))
    got = coproduct_A(t2, t2.word("x", "th"))
    want = TensorElement(P, 2, {
        (mono(x=1, th=1), mono(x=2)): P.one(),
        (mono(x=2), mono(x=1, th=1)): P.one(),
    })
    assert got == want
    inv = t2.word(("x", -1))
    assert coproduct_A(t2, inv) == TensorElement.of(inv, inv)


def test_coproduct_is_algebra_map_on_random_words(family_table):
    rt = family_table
    rng = random.Random(17)
    letters = [("x", 1), ("x", -1), ("th", 1)]
    for _ in range(30):
        w1 = [letters[rng.randrange(3)] for _ in range(rng.randint(1, 3))]
        w2 = [letters[rng.randrange(3)] for _ in range(rng.randint(1, 3))]
        a, b = rt.normalize_word(w1), rt.normalize_word(w2)
        lhs = coproduct_A(rt, rt.mul(a, b))
        rhs = tensor_multiply(rt, coproduct_A(rt, a), coproduct_A(rt, b))
        assert lhs == rhs


def test_counit_examples(t2):
    assert counit_A(t2, t2.word("x", "x")) == t2.params.one()
    assert counit_A(t2, t2.word("x", "th")).is_zero()


def test_antipode_examples(t2):
    P = t2.params
    q = P.var("q")
    assert antipode_A(t2, t2.word("th")) == Element.monomial(P, mono(x=-2, th=1), -q)
    assert antipode_A(t2, t2.word("x", "th")) == Element.monomial(P, mono(x=-3, th=1), -(q ** 2))


def test_hopf_axioms_on_words(family_table):
    rt = family_table
    # all coordinate words of length <= 3 over {x, x^-1, th}
    letters = [("x", 1), ("x", -1), ("th", 1)]
    words = [[]]
    for _ in range(3):
        words += [w + [l] for w in words for l in letters]
    for w in words:
        e = rt.normalize_word(w)
        if e.is_zero():
            continue
        for res in hopf_axiom_check(rt, e):
            assert res.is_zero(), (w, res)


def test_w_costructures(t2):
    P = t2.params
    forms = maurer_forms(t2)
    got = costructures_W(t2, "coproduct", ("wx",))
    want = (TensorElement.of(forms["wx"], Element.one(P))
            + TensorElement.of(Element.one(P), forms["wx"]))
    assert got == want
    assert costructures_W(t2, "counit", ("wth",)).is_zero()
    assert costructures_W(t2, "antipode", ("wth",)) == forms["wth"].scale(-1)
    for z in w_relation_residuals(t2):
        assert z.is_zero()
    for z in w_antipode_residuals(t2):
        assert z.is_zero()


def test_pairing_table(t2):
    P = t2.params
    q, r = P.var("q"), P.var("r")
    T, Nb = UElement.gen_T(P), UElement.gen_nabla(P)
    assert pair(t2, T, t2.word("x")) == r
    assert pair(t2, T, t2.word("th")).is_zero()
    assert pair(t2, Nb, t2.word("x")).is_zero()
    assert pair(t2, Nb, t2.word("th")) == P.one()
    assert pair(t2, T, t2.word("x", "th")).is_zero()
    assert pair(t2, Nb, t2.word("x", "th")) == q
    # group-like powers: <T^k, x^m> = r^(km)
    assert pair(t2, UElement.gen_T(P, 2), t2.word(("x", 3))) == r ** 6
    # long words fold letter by letter, without recursion
    assert pair(t2, T, t2.word(("x", 2000))) == r ** 2000
    assert pair(t2, Nb, t2.word(("x", 2000), "th")) == q ** 2000
    assert pair(t2, UElement.unit(P), t2.word("x")) == P.one()
    assert pair(t2, T, Element.one(P)) == P.one()


def test_left_act_examples(t2):
    P = t2.params
    r = P.var("r")
    T, Nb = UElement.gen_T(P), UElement.gen_nabla(P)
    assert left_act(t2, T, t2.word("x")) == t2.word("x").scale(r)
    assert left_act(t2, Nb, t2.word("th")) == t2.word("x")
    assert left_act(t2, T, t2.word("x", "th")) == t2.word("x", "th").scale(r * r)


def test_left_act_matches_operator_action(t2):
    # the operators agree with the coproduct-and-pairing definition
    P = t2.params
    for u in (UElement.gen_T(P), UElement.gen_nabla(P), UElement.gen_K(P),
              UElement.gen_T(P, -1)):
        for m in coordinate_basis(6):
            e = Element.monomial(P, m)
            assert left_act(t2, u, e) == _left_act_fold(t2, u, e), (u, m)


def test_left_act_and_pair_match_fold_on_mixed_keys(family_table):
    rt = family_table
    P = rt.params
    basis = [Element.monomial(P, m) for m in coordinate_basis(6)]
    keys = [(i, j, n) for i in range(-3, 4) for j in range(-3, 4) for n in (0, 1)]
    for u in (UElement(P, {k: P.one()}) for k in keys):
        for e in basis:
            assert left_act(rt, u, e) == _left_act_fold(rt, u, e), (u, e)
            assert pair(rt, u, e) == _pair_fold(rt, u, e), (u, e)
    # and on a combination of keys and of monomials
    u = UElement(P, {(1, -2, 1): P.var("q"), (-3, 0, 0): P.one(), (0, 3, 1): -P.one()})
    e = basis[0] + basis[7].scale(P.var("q")) - basis[-1]
    assert left_act(rt, u, e) == _left_act_fold(rt, u, e)
    assert pair(rt, u, e) == _pair_fold(rt, u, e)


def test_left_act_matches_derived_operators(family_table):
    # T has two definitions: the U generator, which left_act applies as the
    # diagonal Q^degree, and the derived operator 1 + (Q-1)*H of the main
    # algebra.  They must act alike, and so must the two readings of Nb
    rt = family_table
    P = rt.params
    for u, name in ((UElement.gen_T(P), "T"), (UElement.gen_nabla(P), "Nb")):
        for m in coordinate_basis(6):
            f = Element.monomial(P, m)
            assert left_act(rt, u, f) == rt.act(expand_derived(rt, name), f), (name, m)


def test_left_act_product_compatibility(t2):
    # U[a b] agrees with applying the coproduct factors to a and b
    P = t2.params
    T, Nb = UElement.gen_T(P), UElement.gen_nabla(P)
    samples = [(t2.word("x"), t2.word("th")), (t2.word("th"), t2.word("x")),
               (t2.word("x", "th"), t2.word(("x", -1))), (t2.word("th"), t2.word("th"))]
    for u in (T, Nb):
        for a, b in samples:
            direct = left_act(t2, u, t2.mul(a, b))
            total = Element.zero(P)
            for key, cu in u.terms.items():
                for k1, k2, sgn in u_coproduct_key(key):
                    pa = a.parity() or 0
                    sign = -1 if (u_key_parity(k2) * pa) & 1 else 1
                    part = t2.mul(left_act(t2, UElement(P, {k1: P.one()}), a),
                                  left_act(t2, UElement(P, {k2: P.one()}), b))
                    total = total + part.scale(cu).scale(sign * sgn)
            assert direct == total, (u, a, b)


def _shifted_coproduct_key(k):
    """Delta(T^i K^j Nb^n) with Delta(Nb) = Nb (x) T + K (x) Nb, as
    ``u_coproduct_key`` gives it with Delta(Nb) = Nb (x) 1 + K (x) Nb."""
    i, j, n = k
    if not n:
        return [((i, j, 0), (i, j, 0), 1)]
    return [((i, j, 1), (i + 1, j, 0), 1), ((i, j + 1, 0), (i, j, 1), 1)]


def _shifted_antipode(u):
    """S(T^i K^j Nb^n) with S(Nb) = -K^-1*T^-1*Nb, which m(S (x) id) Delta(Nb)
    = 0 gives for the shifted Delta(Nb)."""
    out = UElement(u.params)
    for (i, j, n), c in u.terms.items():
        out.add_term((-i - n, -j - n, n), -c if n else c)
    return out


# name, assignment, and whether Delta(Nb) carries the T of the V(f)*Hg
# correction: at III with p != 1 the pairing respects the product only then
PAIRING_TABLES = {
    "I": ("I", {}, False), "II": ("II", {}, False), "II-r1": ("II", {"r": 1}, False),
    "III-p1": ("III", {"p": 1}, False), "III": ("III", {}, True),
    "III-p2/3": ("III", {"p": Fraction(2, 3)}, True),
}


@pytest.mark.parametrize("case", list(PAIRING_TABLES))
def test_pairing_is_a_hopf_pairing(case):
    # <u, ab> = <u_(1), a><u_(2), b> (Koszul sign of u_(2) past a) and
    # <S u, a> = <u, S a> for u = T^i K^j Nb^n and a, b in the basis
    name, assignment, shifted = PAIRING_TABLES[case]
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct.specialize(assignment) if assignment else ct)
    P = rt.params
    antipode = _shifted_antipode if shifted else u_antipode
    basis = coordinate_basis(2)
    memo = {}

    def pairing(k, e):
        total = P.zero()
        for m, c in e.terms.items():
            if (k, m) not in memo:
                memo[k, m] = pair(rt, UElement(P, {k: P.one()}), Element.monomial(P, m))
            total = total + c * memo[k, m]
        return total

    def law(coproduct, k, a, b):
        total = P.zero()
        for k1, k2, sgn in coproduct(k):
            term = pairing(k1, Element.monomial(P, a)) * pairing(k2, Element.monomial(P, b))
            negative = (sgn < 0) != bool(u_key_parity(k2) * (a[TH] & 1))
            total = total - term if negative else total + term
        return total

    coproduct = _shifted_coproduct_key if shifted else u_coproduct_key
    for k in [(i, j, n) for i in (-1, 0, 1) for j in (-1, 0, 1) for n in (0, 1)]:
        u = UElement(P, {k: P.one()})
        for a in basis:
            for b in basis:
                assert pairing(k, rt.mul_mono_mono(a, b)) == law(coproduct, k, a, b), (k, a, b)
            assert pair(rt, antipode(u), Element.monomial(P, a)) == pair(
                rt, u, antipode_A(rt, Element.monomial(P, a))), (k, a)
    if shifted:
        # the engine's Delta(Nb) fails here: <Nb, th*x> = Q while the law
        # with Nb (x) 1 + K (x) Nb gives <Nb, th><1, x> = 1
        th_x = rt.mul_mono_mono(mono(th=1), mono(x=1))
        assert pairing((0, 0, 1), th_x) == rt.ct.Q != law(
            u_coproduct_key, (0, 0, 1), mono(th=1), mono(x=1))


def test_coproduct_U_residuals_all_types():
    for name in ("I", "II", "III"):
        rt = build_rule_table(CalculusType.by_name(name))
        for f in coordinate_basis(3):
            for g in coordinate_basis(3):
                r1, r2 = coproduct_U_residuals(rt, f, g)
                assert r1.is_zero() and r2.is_zero(), (name, f, g)


def test_leibniz_grid_matches_its_cells():
    # structure coefficients that disagree with the rules give residuals
    # that depend on both f and g, so a row or column mixed up in the grid,
    # or a cell out of order, shows; V(f) is nonzero at type III
    rt = build_rule_table(CalculusType.type_iii())
    rt.ct = dataclasses.replace(rt.ct, Q=rt.ct.Q * rt.ct.Q, Q11=rt.ct.Q11 * rt.ct.Q)
    fs, gs = coordinate_basis(2), coordinate_basis(1)[::-1]
    grid = twisted_leibniz_grid(rt, fs, gs)
    assert grid == [coproduct_U_residuals(rt, f, g) for f in fs for g in gs]
    assert len({repr(r) for cell in grid for r in cell}) >= len(grid) // 2


def test_nabla_on_coordinates_closed_form(family_table):
    # Nb(x^m th) = Q11^m x^(m+1) and Nb(x^m) = 0, negative m included, so the
    # grid's correction V = Q22*Nb is Q11^m*Q22*x^(m+1) on x^m th and 0 on x^m
    rt = family_table
    P, ct = rt.params, rt.ct
    nb = expand_derived(rt, "Nb")
    for m in range(-4, 5):
        odd = rt.act(nb, Element.monomial(P, mono(x=m, th=1)))
        assert odd == Element.monomial(P, mono(x=m + 1), ct.Q11 ** m), m
        assert rt.act(nb, Element.monomial(P, mono(x=m))).is_zero(), m


def test_nabla_coproduct_square_vanishes(t2):
    assert u_coproduct_square_nabla(t2.params) == []


def test_antipode_residuals(t2):
    P = t2.params

    def nonzero(u, variant):
        return [r for r in antipode_U_residuals(t2, u, variant, 6) if not r.is_zero()]

    assert not nonzero(UElement.gen_K(P), "corrected")
    assert not nonzero(UElement.gen_nabla(P), "corrected")
    assert nonzero(UElement.gen_nabla(P), "as-printed")


def test_uelement_algebra(t2):
    P = t2.params
    Nb = UElement.gen_nabla(P)
    assert Nb.mul(Nb).is_zero()
    T = UElement.gen_T(P)
    assert T.mul(Nb) == Nb.mul(T)
    assert T.mul(UElement.gen_T(P, -1)) == UElement.unit(P)


def _core_operands(kind, P):
    """A constructor and two overlapping operands for one kind of element."""
    r, q = P.var("r"), P.var("q")
    x, th = mono(x=1), mono(th=1)
    if kind == "algebra":
        make, keys = (lambda terms: Element(P, terms)), (x, th, mono(x=1, th=1))
    elif kind == "tensor":
        make, keys = (lambda terms: TensorElement(P, 2, terms)), ((x, th), (th, x), (x, x))
    else:
        make, keys = (lambda terms: UElement(P, terms)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    a = make({keys[0]: r, keys[1]: P.zero(), keys[2]: q})
    b = make({keys[1]: q, keys[2]: -q})
    return make, keys, a, b


@pytest.mark.parametrize("kind", ["algebra", "tensor", "dual"])
def test_shared_linear_core(t2, kind):
    P = t2.params
    make, keys, a, b = _core_operands(kind, P)
    assert list(a.terms) == [keys[0], keys[2]]   # zero terms pruned
    snap_a, snap_b = dict(a.terms), dict(b.terms)
    total = a + b
    assert type(total) is type(a)
    assert total.terms == {keys[0]: P.var("r"), keys[1]: P.var("q")}
    assert (a + b) - b == a
    assert -(-a) == a
    assert a.scale(0).is_zero() and type(a.scale(0)) is type(a)
    assert a.scale(P.var("r")) - a.scale(P.var("r")) == make({})
    assert dict(a.terms) == snap_a and dict(b.terms) == snap_b
    acc = make({})
    acc.add_term(keys[0], P.var("q"))
    acc.add_scaled(b, P.var("r"))
    acc.add_term(keys[0], -P.var("q"))
    assert acc == b.scale(P.var("r"))


def test_shared_core_keeps_types_apart(t2):
    P = t2.params
    zeros = [Element(P), TensorElement(P, 2), TensorElement(P, 3), UElement(P)]
    for i, z in enumerate(zeros):
        for j, w in enumerate(zeros):
            assert (z == w) == (i == j)
    for other in (TensorElement.of(t2.word("x"), t2.word("th")), UElement.gen_T(P)):
        with pytest.raises(TypeError):
            t2.normalize(other)
