"""Graded tensor products, Hopf costructures, coactions, and the dual
sector's action and pairing.

Tensor slots hold normal-ordered elements; multiplication uses the sign rule
(A (x) B)(C (x) D) = (-1)^(deg B * deg C) (AC (x) BD), extended slotwise to
higher arity.  The coordinate Hopf algebra has group-like x and primitive-ish
theta; the one-form algebra W has primitive generators; the dual sector U is
generated by the group-like scale operators T and K together with the odd
nilpotent Nb.  U acts on the coordinate algebra through one operator map,
``left_act`` (T and K diagonally, with eigenvalues Q^(degree) and
Q11^(degree), and Nb as x*pth), and the pairing <u, a> is its counit.
The derived operators of the main algebra (H, Nb, T, the Maurer-Cartan
forms and the Lie derivatives) are expanded here by ``expand_derived``,
which the action, the parser and the identity catalog all read, and
``leibniz_residual`` writes the twisted Leibniz rules (59) and (62) of H and
Nb as one word per coordinate monomial.

Tensor elements and dual-sector elements are ``algebra.Element``s over
other basis keys: a TensorElement is keyed by tuples of monomials, a
UElement by (T, K, Nb) exponents.  Both take their linear arithmetic from
``Element`` and add only what their basis needs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import partial, reduce
from itertools import product

from .coeffs import ParamSet, QspError, RationalFunction
from .algebra import (
    DX, DTH, X, TH,
    Element,
    Monomial,
    NotAFunctionArgument,
    ONE_MONO,
    RuleTable,
    UnsupportedGenerator,
    _reducible,
    mono,
    mono_exp,
    mono_exps,
    mono_parity,
    mono_str,
    rule_coeffs,
    shaped_rules,
    word_letters,
)


# ----------------------------------------------------------------------------
# Tensor elements with Koszul-signed multiplication
# ----------------------------------------------------------------------------

class TensorElement(Element):
    """Finite linear combination of tensor products of canonical monomials,
    keyed by tuples of monomials, one per slot: its rank is its key length."""

    __slots__ = ()

    @classmethod
    def unit(cls, params: ParamSet, arity: int) -> "TensorElement":
        return cls(params, {(ONE_MONO,) * arity: params.one()})

    @classmethod
    def of(cls, *slots: Element) -> "TensorElement":
        """Tensor product of elements, distributing over their terms."""
        params = slots[0].params
        out = cls(params)
        _distribute(out, slots, params.one())
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "<0 (x) 0>"
        bits = []
        for k, c in sorted(self.terms.items(), key=lambda kv: tuple(map(mono_exps, kv[0]))):
            slot = " (x) ".join(mono_str(m) for m in k)
            bits.append(f"({c})*[{slot}]")
        return " + ".join(bits)


def _koszul_sign(ka: tuple, kb: tuple) -> int:
    """Sign for slotwise multiplication: factors of A cross earlier factors of B."""
    exp = crossed = 0
    for ma, mb in zip(ka, kb):
        exp += mono_parity(ma) * crossed
        crossed += mono_parity(mb)
    return -1 if exp & 1 else 1


def tensor_multiply(rt: RuleTable, a: TensorElement, b: TensorElement) -> TensorElement:
    out = TensorElement(a.params)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            if len(ka) != len(kb):
                raise ValueError("tensor rank mismatch")
            sign = _koszul_sign(ka, kb)
            coeff = ca * cb if sign > 0 else -(ca * cb)
            slots = [rt.mul_mono_mono(ma, mb) for ma, mb in zip(ka, kb)]
            _distribute(out, slots, coeff)
    return out


def _distribute(out: TensorElement, slots: Sequence[Element], coeff) -> None:
    acc = [((), coeff)]
    for e in slots:
        nxt = []
        for key, c in acc:
            for m, cm in e.terms.items():
                nxt.append((key + (m,), c * cm))
        acc = nxt
    for key, c in acc:
        out.add_term(key, c)


def tensor_map_slot(te: TensorElement, slot: int,
                    fn: Callable[[Monomial], TensorElement],
                    odd: bool = False) -> TensorElement:
    """Apply a map to one slot: the keys of the tensor ``fn(monomial)`` are
    spliced in its place.  An ``odd`` map (d, say) picks up the Koszul sign
    of crossing the parities of the slots to its left."""
    out = TensorElement(te.params)
    for key, c in te.terms.items():
        if odd and sum(mono_parity(m) for m in key[:slot]) & 1:
            c = -c
        for k, ck in fn(key[slot]).terms.items():
            out.add_term(key[:slot] + k + key[slot + 1:], c * ck)
    return out


# ----------------------------------------------------------------------------
# The coaction fold and the Hopf costructures on the coordinate algebra
# ----------------------------------------------------------------------------

def _require_function(e: Element) -> None:
    if not e.is_function_sector():
        raise NotAFunctionArgument("expected a coordinate-sector element")


# The images of the letters th, dx and dth under the right and left coactions,
# as (left slot, right slot, sign) terms; a power x^k is group-like and is
# imaged whole by ``coaction``.
_x, _th, _dx, _dth = mono(x=1), mono(th=1), mono(dx=1), mono(dth=1)
_BLOCK_IMAGES = {
    ("right", TH): ((_th, _x, 1), (_x, _th, 1)),
    ("left", TH): ((_th, _x, 1), (_x, _th, 1)),
    ("right", DX): ((_dx, _x, 1),),
    ("left", DX): ((_x, _dx, 1),),
    ("right", DTH): ((_dth, _x, 1), (_dx, _th, 1)),
    ("left", DTH): ((_x, _dth, 1), (_th, _dx, -1)),
}


def _tensor_product(rt: RuleTable, factors: Iterable[TensorElement]) -> TensorElement:
    """The product of normal-ordered rank-2 factors, left to right."""
    out = None
    for f in factors:
        out = f if out is None else tensor_multiply(rt, out, f)
    return TensorElement.unit(rt.params, 2) if out is None else out


def coaction(rt: RuleTable, blocks: Iterable[tuple], side: str) -> TensorElement:
    """Right or left coaction of a word given as blocks (generator, exponent):
    the product of the block images in order,

        x^k -> x^k (x) x^k          th -> th (x) x + x (x) th
        dR(dx) = dx (x) x           dR(dth) = dth (x) x + dx (x) th
        dL(dx) = x (x) dx           dL(dth) = x (x) dth - th (x) dx

    with a block of k letters other than x imaged as k factors.  On x and th
    both sides are the coordinate coproduct.
    """
    P = rt.params
    one = P.one()

    def factors():
        for g, k in blocks:
            if g == X:
                yield TensorElement(P, {(mono(x=k),) * 2: one})
            elif (side, g) in _BLOCK_IMAGES:
                for _ in range(k):
                    yield TensorElement(P, {(a, b): one if s > 0 else -one
                                            for a, b, s in _BLOCK_IMAGES[side, g]})
            else:
                raise UnsupportedGenerator("coactions are defined on words in x, th, dx, dth")

    return _tensor_product(rt, factors())


def coaction_mono(rt: RuleTable, m: Monomial, side: str) -> TensorElement:
    return coaction(rt, [(g, k) for g, k in enumerate(mono_exps(m)) if k], side)


def coaction_element(rt: RuleTable, e: Element, side: str) -> TensorElement:
    out = TensorElement(rt.params)
    for m, c in e.terms.items():
        out.add_scaled(coaction_mono(rt, m, side), c)
    return out


def coproduct_A(rt: RuleTable, e: Element) -> TensorElement:
    _require_function(e)
    return coaction_element(rt, e, "right")


def counit_A(rt: RuleTable, e: Element) -> RationalFunction:
    _require_function(e)
    return sum((c for m, c in e.terms.items() if not mono_exp(m, TH)), rt.params.zero())


def antipode_A(rt: RuleTable, e: Element) -> Element:
    """Graded antihomomorphism with S(x) = x^-1 and S(th) = -x^-1 th x^-1."""
    _require_function(e)
    P = rt.params
    s_th = rt.normalize_word([("x", -1), "th", ("x", -1)]).scale(-1)
    out = Element.zero(P)
    for m, c in e.terms.items():
        k, eps = mono_exp(m, X), mono_exp(m, TH)
        img = Element.monomial(P, mono(x=-k))
        if eps:
            # S(x^k th) = S(th) S(x^k); both coordinate factors, x^k is even
            img = rt.mul(s_th, img)
        out.add_scaled(img, c)
    return out


def collapse(rt: RuleTable, te: TensorElement, *maps) -> Element:
    """m (f1 (x) ... (x) fn) te for maps called as ``f(rt, a)``, one per
    slot: the product of the slots, each mapped first when maps are given."""
    P = rt.params
    out = Element.zero(P)
    for key, c in te.terms.items():
        fs = maps or (_identity,) * len(key)
        out.add_scaled(reduce(rt.mul, [f(rt, Element.monomial(P, m))
                                       for f, m in zip(fs, key)]), c)
    return out


def _identity(rt: RuleTable, a: Element) -> Element:
    return a


def _counit(rt: RuleTable, a: Element) -> Element:
    return Element.scalar(rt.params, counit_A(rt, a))


def comodule_residuals(rt: RuleTable, te: TensorElement, ident: Element,
                       side: str) -> list:
    """Comodule axioms of the coaction image ``te`` of ``ident``: for side
    'right' (dR (x) id) dR - (id (x) Delta) dR and (id (x) eps) dR - id, for
    side 'left' (Delta (x) id) dL - (id (x) dL) dL and (eps (x) id) dL - id.
    With te = Delta(a), side 'right' gives coassociativity and the right
    counit law of Delta.  One map expands both slots, because on the
    coordinate slot the coaction is the coproduct.
    """
    expand = partial(coaction_mono, rt, side=side)
    coassoc = tensor_map_slot(te, 0, expand) - tensor_map_slot(te, 1, expand)
    if side == "right":
        return [coassoc, collapse(rt, te, _identity, _counit) - ident]
    return [coassoc, collapse(rt, te, _counit, _identity) - ident]


def rule_relations(rt: RuleTable, lefts: Sequence, rights: Sequence = None, typed: bool = False):
    """The rules a*b = rhs of ``rt`` with a in ``lefts`` and b in ``rights``
    (default ``lefts``), in the letters' order, as (a, b, rhs) elements.  The
    rhs is the engine's own product a*b; with ``typed``, a rule of (5), (11)
    or (12) is read at ``rt``'s type instead, which a table may break."""
    rules = shaped_rules(rt.params, rule_coeffs(rt.ct)) if typed else {}
    for a, b in product(lefts, lefts if rights is None else rights):
        key = _reducible(*word_letters([a, b]))
        if key:
            ea, eb = rt.word(a), rt.word(b)
            yield ea, eb, rules[key] if key in rules else rt.mul(ea, eb)


def relation_residuals(rt: RuleTable, f: Callable, relations: Iterable,
                       anti: bool = False):
    """For each relation (a, b, rhs), a*b = rhs (rhs None for 0), the residual
    f(a)f(b) - f(rhs) of a map called as ``f(rt, a)``, tensors multiplying as
    tensors; with ``anti``, of an anti-map: (-1)^(|a||b|) f(b)f(a) - f(rhs).
    A map that is the product of its generator images along a normal-ordered
    word is an algebra (anti-)map once no rule over its generators leaves a
    residual, and two that agree on the generators agree everywhere (Kassel,
    Quantum Groups, ch. III): an axiom between them holds once it holds there.
    """
    for a, b, rhs in relations:
        fa, fb = (f(rt, b), f(rt, a)) if anti else (f(rt, a), f(rt, b))
        ab = tensor_multiply(rt, fa, fb) if isinstance(fa, TensorElement) else rt.mul(fa, fb)
        if anti and fa.parity() and fb.parity():
            ab = -ab
        yield ab if rhs is None else ab - f(rt, rhs)


def hopf_axiom_check(rt: RuleTable, e: Element) -> list:
    """Residuals of coassociativity, both counit laws and both antipode laws."""
    delta = coproduct_A(rt, e)
    coassoc, counit_r = comodule_residuals(rt, delta, e, "right")
    counit_l = collapse(rt, delta, _counit, _identity) - e
    eps_unit = _counit(rt, e)
    antipode_l = collapse(rt, delta, antipode_A, _identity) - eps_unit
    antipode_r = collapse(rt, delta, _identity, antipode_A) - eps_unit
    return [coassoc, counit_l, counit_r, antipode_l, antipode_r]


# ----------------------------------------------------------------------------
# The one-form Hopf algebra W
# ----------------------------------------------------------------------------

W_GENS = ("wx", "wth")
W_PARITY = {"wx": 1, "wth": 0}


# derived operator -> its builder, which expand_derived calls once per table
_DERIVED = {
    "H": lambda rt: (Element.monomial(rt.params, mono(x=1, px=1))
                     + Element.monomial(rt.params, mono(th=1, pth=1))),
    "Nb": lambda rt: Element.monomial(rt.params, mono(x=1, pth=1)),
    "T": lambda rt: (Element.one(rt.params)
                     + expand_derived(rt, "H").scale(rt.ct.Q - rt.params.one())),
    "wx": lambda rt: rt.normalize_word(["dx", ("x", -1)]),
    "wth": lambda rt: (rt.normalize_word(["dth", ("x", -1)])
                       - rt.normalize_word(["dx", ("x", -1), "th", ("x", -1)])),
    "Lx": lambda rt: rt.normalize_word(["ix", "d"]) + rt.normalize_word(["d", "ix"]),
    "Lth": lambda rt: rt.normalize_word(["ith", "d"]) - rt.normalize_word(["d", "ith"]),
}
DERIVED_NAMES = tuple(_DERIVED)


def expand_derived(rt: RuleTable, name: str) -> Element:
    """Normal-ordered expansion of the derived operator ``name``, one of
    ``DERIVED_NAMES``, built once per table and kept with the table's
    symbols (``exprio``) under (name, 1)."""
    symbols = rt._symbols
    e = symbols.get((name, 1))
    if e is None:
        e = symbols[name, 1] = _DERIVED[name](rt)
    return e


def maurer_forms(rt: RuleTable) -> dict[str, Element]:
    """The Cartan-Maurer forms wx and wth."""
    return {w: expand_derived(rt, w) for w in W_GENS}


def costructures_W(rt: RuleTable, kind: str, word: Sequence[str]):
    """Coproduct, counit or antipode of a word in the one-forms wx, wth.

    The coproduct is the product of the primitive images w (x) 1 + 1 (x) w
    in the main algebra, whose Koszul signs are W's: wx is odd and wth even.
    """
    P = rt.params
    for g in word:
        if g not in W_GENS:
            raise QspError(f"not a one-form generator: {g!r}")
    if kind == "counit":
        return P.one() if not word else P.zero()
    if kind == "antipode":
        # graded antihomomorphism with S(w) = -w on generators: reversing
        # n letters, o of them odd, crosses o(o-1)/2 odd pairs
        o = sum(W_PARITY[g] for g in word)
        sign = -1 if (len(word) + o * (o - 1) // 2) & 1 else 1
        forms = maurer_forms(rt)
        return reduce(rt.mul, (forms[g] for g in reversed(word)), Element.one(P)).scale(sign)
    if kind != "coproduct":
        raise ValueError(f"unknown costructure {kind!r}")
    one = Element.one(P)
    primitive = {g: TensorElement.of(w, one) + TensorElement.of(one, w)
                 for g, w in maurer_forms(rt).items()}
    return _tensor_product(rt, (primitive[g] for g in word))


# the one-form relations (29), wx*wth = wth*wx and wx*wx = 0, over words
_W_RELATIONS = ((("wx",), ("wth",), ("wth", "wx")), (("wx",), ("wx",), None))


def w_relation_residuals(rt: RuleTable, kind: str):
    """Residuals of the one-form relations under the costructure ``kind``:
    "coproduct" (well-definedness) or "antipode", an anti-map."""
    return relation_residuals(rt, lambda rt, w: costructures_W(rt, kind, w),
                              _W_RELATIONS, anti=kind == "antipode")


# ----------------------------------------------------------------------------
# The dual sector: T (group-like), K (diagonal scale), Nb (odd, nilpotent)
# ----------------------------------------------------------------------------

UKey = tuple  # (T power, K power, Nb power in {0, 1})


class UElement(Element):
    """Linear combination of T^a K^b Nb^c, keyed by (a, b, c); the three
    generators commute."""

    __slots__ = ()

    @classmethod
    def unit(cls, params: ParamSet) -> "UElement":
        return cls(params, {(0, 0, 0): params.one()})

    @classmethod
    def gen_T(cls, params: ParamSet, power: int = 1) -> "UElement":
        return cls(params, {(power, 0, 0): params.one()})

    @classmethod
    def gen_K(cls, params: ParamSet, power: int = 1) -> "UElement":
        return cls(params, {(0, power, 0): params.one()})

    @classmethod
    def gen_nabla(cls, params: ParamSet) -> "UElement":
        return cls(params, {(0, 0, 1): params.one()})

    def mul(self, other: "UElement") -> "UElement":
        out = UElement(self.params)
        for (a1, b1, n1), c1 in self.terms.items():
            for (a2, b2, n2), c2 in other.terms.items():
                if n1 and n2:
                    continue  # Nb^2 = 0
                out.add_term((a1 + a2, b1 + b2, n1 + n2), c1 * c2)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "U<0>"
        bits = []
        for (a, b, n), c in sorted(self.terms.items()):
            w = "*".join(filter(None, [
                f"T^{a}" if a else "",
                f"K^{b}" if b else "",
                "Nb" if n else "",
            ])) or "1"
            bits.append(f"({c})*{w}")
        return "U<" + " + ".join(bits) + ">"


def u_key_parity(k: UKey) -> int:
    return k[2] & 1


def u_coproduct_key(k: UKey):
    """Coproduct terms of a monomial key as (left, right, coefficient sign)."""
    a, b, n = k
    if not n:
        return [((a, b, 0), (a, b, 0), 1)]
    # (T^a K^b (x) T^a K^b) * (Nb (x) 1 + K (x) Nb); all crossings are even
    return [((a, b, 1), (a, b, 0), 1), ((a, b + 1, 0), (a, b, 1), 1)]


def u_antipode(u: UElement, variant: str = "corrected") -> UElement:
    """Antipode: S(T)=T^-1, S(K)=K^-1, S(Nb) = -K^s Nb.

    variant 'corrected' uses s = -1 (passes the antipode axioms); variant
    'as-printed' uses s = +1 (the certified failing form).
    """
    s = -1 if variant == "corrected" else 1
    out = UElement(u.params)
    for (a, b, n), c in u.terms.items():
        key = (-a, -b + (s * n), n)
        out.add_term(key, -c if n else c)
    return out


def left_act(rt: RuleTable, u: UElement, a: Element) -> Element:
    """The left action U[a] = a_(1) <u, a_(2)>, computed as operators:
    T^i K^j multiplies a monomial of degree n (x-exponent plus th-exponent)
    by Q^(i*n) * Q11^(j*n), and Nb acts as x*pth.

    Both are actions of U, so they agree because they agree on T, K and Nb.
    Delta(x^k) = x^k (x) x^k and Delta(x^k th) = x^k th (x) x^(k+1) +
    x^(k+1) (x) x^k th.  T and K are group-like and even, with <T, x> = Q,
    <K, x> = Q11 and <T, th> = <K, th> = 0, so only the term with a pure
    power x^n in the right slot pairs: U[m] = <u, x^n> m.  Nb pairs to 0
    with x^n and to Q11^k with x^k th (Delta(Nb) = Nb (x) 1 + K (x) Nb), so
    Nb[x^k] = 0 and Nb[x^k th] = Q11^k x^(k+1), which is x*pth on both.
    ``tests/test_hopf.py`` checks the two against each other.  T acts as the
    main algebra's T = 1 + (Q-1)*H (``expand_derived``) does, since H acts
    by [n]_Q (the proof of eq54, above ``calculus._H_PAST_X``).
    """
    _require_function(a)
    P = rt.params
    nb = expand_derived(rt, "Nb")
    out = Element.zero(P)
    for (i, j, n), cu in u.terms.items():
        for m, c in (rt.act(nb, a) if n else a).terms.items():
            deg = mono_exp(m, X) + mono_exp(m, TH)
            scale = (rt.ct.Q ** (i * deg)) * (rt.ct.Q11 ** (j * deg))
            out.add_term(m, c * scale * cu)
    return out


def pair(rt: RuleTable, u: UElement, a: Element) -> RationalFunction:
    """Dual evaluation <u, a> = eps(U[a]), the counit of the left action:
    by the counit law eps(a_(1)) a_(2) = a, eps(a_(1)) <u, a_(2)> = <u, a>."""
    return counit_A(rt, left_act(rt, u, a))


def u_coproduct_square_nabla(params: ParamSet) -> list:
    """Koszul expansion of Delta(Nb)^2, with Delta(Nb) from
    ``u_coproduct_key``, as ((left key, right key), coeff) terms."""
    terms: dict = {}
    parts = u_coproduct_key((0, 0, 1))
    for l1, r1, s1 in parts:
        for l2, r2, s2 in parts:
            if (l1[2] and l2[2]) or (r1[2] and r2[2]):
                continue  # Nb^2 = 0 inside one slot
            sign = s1 * s2 * (-1 if (u_key_parity(r1) * u_key_parity(l2)) & 1 else 1)
            key = ((l1[0] + l2[0], l1[1] + l2[1], l1[2] + l2[2]),
                   (r1[0] + r2[0], r1[1] + r2[1], r1[2] + r2[2]))
            terms[key] = terms.get(key, 0) + sign
    return [(k, v) for k, v in terms.items() if v]


def leibniz_residual(rt: RuleTable, name: str, f: Monomial) -> Element:
    """The twisted Leibniz rule of ``name`` ("H" or "Nb") past the coordinate
    monomial f as a word: H*f - H(f) - T(f)*H, or, with V = Q22*Nb,
    Nb*f - Nb(f) - (-1)^|f| (K(f)*Nb + V(f)*H).  V(x^k th) = Q11^k Q22 x^(k+1)
    and V(x^k) = 0, so V vanishes at the types with Q22 = 0.  Since ``act``
    is a module action on an associative table, the word acts on g as the
    rule's residual at (f, g): a zero word proves the rule for every g.
    """
    P = rt.params
    op, H = expand_derived(rt, name), expand_derived(rt, "H")
    fe = Element.monomial(P, f)
    op_f = rt.act(op, fe)
    word = rt.mul(op, fe) - op_f
    if name == "H":
        return word - rt.mul(left_act(rt, UElement.gen_T(P), fe), H)
    twisted = (rt.mul(left_act(rt, UElement.gen_K(P), fe), op)
               + rt.mul(op_f.scale(rt.ct.Q22), H))
    return word - (twisted.scale(-1) if mono_parity(f) else twisted)


def coproduct_U_residuals(rt: RuleTable, f: Monomial, g: Monomial) -> list[Element]:
    """``[H residual, Nb residual]`` of the twisted Leibniz rules at (f, g):
    the ``leibniz_residual`` words at ``f`` acting on ``g``."""
    ge = Element.monomial(rt.params, g)
    return [rt.act(leibniz_residual(rt, name, f), ge) for name in ("H", "Nb")]


def antipode_axiom_operator(rt: RuleTable, u: UElement, variant: str,
                            side: str = "left") -> UElement:
    """m(S (x) id)Delta(u) - eps(u) (side 'left') or the mirrored law."""
    P = rt.params
    acc = UElement(P)
    for k, cu in u.terms.items():
        for k1, k2, sgn in u_coproduct_key(k):
            coeff = cu if sgn > 0 else -cu
            u1 = UElement(P, {k1: P.one()})
            u2 = UElement(P, {k2: P.one()})
            if side == "left":
                term = u_antipode(u1, variant).mul(u2)
            else:
                term = u1.mul(u_antipode(u2, variant))
            acc.add_scaled(term, coeff)
        if not k[2]:
            acc.add_term((0, 0, 0), -cu)   # - eps(u) times the unit
    return acc


def antipode_U_residuals(rt: RuleTable, u: UElement, variant: str):
    """Action residuals of both antipode laws for ``u`` on the coordinate
    basis with |x-degree| <= 6, left law first; a law whose operator
    vanishes yields none."""
    for side in ("left", "right"):
        z = antipode_axiom_operator(rt, u, variant, side)
        if z.terms:
            for m in coordinate_basis(6):
                yield left_act(rt, z, Element.monomial(rt.params, m))


def coordinate_basis(degree: int) -> list[Monomial]:
    return [mono(x=k, th=eps) for k in range(-degree, degree + 1) for eps in (0, 1)]
