"""Theorem-by-theorem verification harness.

Each ``check_*`` function verifies one headline statement (plus its close
relatives) exhaustively over all basis words within a weight bound, or over a
seeded stream of random elements where the statement is element-level.  The
result is a :class:`CheckReport`.  Every identity instance is one call of
:meth:`CheckReport.expect`, which counts it and, when the identity fails,
records the line ``family k=v ...``: the identity's family, then the shown
words, operands and both sides in canonical text, so a failure is replayable
without rerunning the harness.  A report passes when no instance failed
and at least one was checked: a check that checked nothing is no evidence.

The harness caches nothing of its own: it builds the basis words of a weight
on each call, and its numeric families read power sums from the factorized
route of ``amzv.zeta``, never from the chain-enumeration oracle, which only
the tests compare with it.

Reports are deterministic functions of (check, q, bounds, seed); timings are
informational only.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from itertools import product
from math import comb

from .coalgebra import (
    antipode,
    coproduct,
    coproduct_letter,
    coproduct_mzv_recursive,
    coproduct_mzv_word,
    counit,
    tensor_shuffle,
)
from .ff import FieldSpec, field_from_q
from .products import delta_coeff, diamond, horizontal, shuffle, triangle
from .words import (
    EMPTY,
    Element,
    accumulate,
    accumulate_outer,
    basis_words,
    compositions,
    format_word,
    iter_basis_words,
    letter,
    linear,
    word_weight,
    _element,
)
from . import ff
from .zeta import power_sum_lt, power_sum_lt_element, zeta_trunc


@dataclass
class CheckReport:
    """Outcome of one theorem check at one field size."""

    theorem_id: str
    q: int
    bound: int
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    millis: int = 0

    @property
    def passed(self) -> bool:
        """No failure, and at least one instance checked: a report that
        checked nothing is no evidence."""
        return self.instances > 0 and not self.failures

    def machine_line(self) -> str:
        return "\t".join(
            str(x)
            for x in (
                self.theorem_id,
                self.q,
                self.bound,
                self.instances,
                len(self.failures),
                self.millis,
            )
        )

    def text_block(self) -> str:
        head = (
            f"{'PASS' if self.passed else 'FAIL'} {self.theorem_id} "
            f"(q={self.q}, bound={self.bound}, {self.instances} instances, "
            f"{self.millis} ms)"
        )
        if self.passed:
            return head
        if not self.instances:
            return head + "\n  no instance checked"
        body = "\n".join("  counterexample: " + f for f in self.failures[:10])
        more = len(self.failures) - 10
        if more > 0:
            body += f"\n  ... {more} more"
        return head + "\n" + body

    def expect(self, holds: bool, family: str, /, **shown) -> None:
        """Count one instance of the identity ``family``; if it does not
        hold, record the line ``family k=v ...``.  A word (a tuple of
        letters) is shown by ``format_word``, every other value by its
        ``repr``, which for elements, tensors, series and field elements is
        their canonical text."""
        self.instances += 1
        if not holds:
            parts = [family]
            for k, v in shown.items():
                text = format_word(v, None) if isinstance(v, tuple) else repr(v)
                parts.append(f"{k}={text}")
            self.failures.append(" ".join(parts))


def _checked(check):
    """Time ``check`` into the ``millis`` of the report it returns."""
    @functools.wraps(check)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        rep = check(*args, **kwargs)
        rep.millis = int((time.perf_counter() - t0) * 1000)
        return rep
    return timed


class Rng:
    """SplitMix64, fixed bit-exactly so seeded runs agree everywhere:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z ^ (z >> 31)

    ``below(n)`` reduces the next output modulo n; ``split()`` seeds a child
    generator from the next output.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n < 1:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def split(self) -> "Rng":
        return Rng(self.next_u64())


def random_element(rng: Rng, max_weight: int, max_terms: int, spec: FieldSpec) -> Element:
    """A random combination: each term picks a weight <= max_weight uniformly,
    then a uniform basis word of that weight and a uniform unit coefficient."""
    if max_weight < 1 or max_terms < 1:
        raise ValueError("bounds must be >= 1")
    acc: dict = {}
    for _ in range(1 + rng.below(max_terms)):
        w = 1 + rng.below(max_weight)
        words = basis_words(w, spec)
        word = words[rng.below(len(words))]
        accumulate(spec, acc, {word: spec.unit_from_exp(rng.below(spec.q - 1)).idx})
    return _element(spec, acc)


def _with_elements(spec: FieldSpec, w: int) -> list:
    """The basis words of weight w, each paired with its Element.  Built on
    each call, not memoized, so the harness holds no basis word or Element
    between calls."""
    return [(u, Element.from_word(spec, u)) for u in basis_words(w, spec)]


def _words_up_to(spec: FieldSpec, bound: int, min_weight: int = 1):
    for w in range(min_weight, bound + 1):
        yield from _with_elements(spec, w)


def _pairs_total_weight(spec: FieldSpec, bound: int):
    rows = [_with_elements(spec, w) for w in range(bound)]
    for wa in range(1, bound):
        for wb in range(1, bound - wa + 1):
            yield from product(rows[wa], rows[wb])


def _triples_total_weight(spec: FieldSpec, bound: int):
    rows = [_with_elements(spec, w) for w in range(bound - 1)]
    for wa in range(1, bound - 1):
        for wb in range(1, bound - wa):
            for wc in range(1, bound - wa - wb + 1):
                yield from product(rows[wa], rows[wb], rows[wc])


# -- algebra laws ---------------------------------------------------------------


@_checked
def check_algebra(spec: FieldSpec, max_total_weight: int = 6) -> CheckReport:
    """Commutativity/associativity of the diamond and shuffle products, the
    triangle-product laws, and the horizontal-map laws.

    Pairs run up to total weight ``max_total_weight``; triples (and the
    horizontal pair laws) up to one less.
    """
    rep = CheckReport("thm-commutative-algebra", spec.q, max_total_weight)
    for (a, ea), (b, eb) in _pairs_total_weight(spec, max_total_weight):
        ab, ba = shuffle(ea, eb), shuffle(eb, ea)
        rep.expect(ab == ba, "shuffle-comm", u=a, v=b, lhs=ab, rhs=ba)
        dab, dba = diamond(ea, eb), diamond(eb, ea)
        rep.expect(dab == dba, "diamond-comm", u=a, v=b, lhs=dab, rhs=dba)
        # decomposition and head lemmas for the triangle product
        lhs = triangle(ea, eb) + triangle(eb, ea) + dab
        rep.expect(ab == lhs, "shuffle-decomposition", u=a, v=b, lhs=lhs, rhs=ab)
        head = diamond(Element.from_word(spec, a[:1]), Element.from_word(spec, b[:1]))
        tailsh = shuffle(Element.from_word(spec, a[1:]), Element.from_word(spec, b[1:]))
        rep.expect(dab == triangle(head, tailsh), "diamond-head", u=a, v=b)

    for (a, ea), (b, eb), (c, ec) in _triples_total_weight(spec, max_total_weight - 1):
        tab = triangle(ea, eb)
        rep.expect(shuffle(shuffle(ea, eb), ec) == shuffle(ea, shuffle(eb, ec)),
                   "shuffle-assoc", u=a, v=b, w=c)
        rep.expect(diamond(diamond(ea, eb), ec) == diamond(ea, diamond(eb, ec)),
                   "diamond-assoc", u=a, v=b, w=c)
        rep.expect(triangle(tab, ec) == triangle(ea, shuffle(eb, ec)),
                   "triangle-assoc-law", u=a, v=b, w=c)
        x = diamond(tab, ec)
        rep.expect(x == diamond(ea, triangle(ec, eb)) and x == triangle(diamond(ea, ec), eb),
                   "triangle-diamond-law", u=a, v=b, w=c)

    # horizontal maps: composition on words, distributivity over diamond
    for w, ew in _words_up_to(spec, max_total_weight - 1):
        for al, be in product(spec.units, repeat=2):
            rep.expect(horizontal(al, horizontal(be, ew)) == horizontal(al * be, ew),
                       "horizontal-composition", w=w)
    for (a, ea), (b, eb) in _pairs_total_weight(spec, max_total_weight - 1):
        for al in spec.units:
            fa = horizontal(al, ea)
            for be in spec.units:
                lhs = diamond(fa, horizontal(be, eb))
                rhs = horizontal(al * be, diamond(ea, eb))
                rep.expect(lhs == rhs, "horizontal-diamond",
                           a=a, b=b, alpha=al, beta=be, lhs=lhs, rhs=rhs)
    return rep


# -- coalgebra laws ----------------------------------------------------------------


@_checked
def check_coalgebra(spec: FieldSpec, max_weight: int = 6) -> CheckReport:
    """Compatibility of the coproduct with the shuffle product, its
    coassociativity, the counit axioms, the grading, the shape of the
    unit tensorand, the horizontal-map law for the coproduct and the
    diamond-coproduct law."""
    rep = CheckReport("thm-compatibility-coassociativity", spec.q, max_weight)
    for u, eu in _words_up_to(spec, max_weight):
        du = coproduct(eu)
        wu = word_weight(u)
        rep.expect(all(word_weight(l) + word_weight(r) == wu for l, r in du.idx),
                   "coproduct-grading", u=u)
        left_unit = [(l, r) for l, r in du.idx if not l]
        rep.expect(left_unit == [(EMPTY, u)] and du.idx[(EMPTY, u)] == 1,
                   "unit-tensorand", u=u)

        # counit axioms: (ε ⊗ 1)Δ(u) = u = (1 ⊗ ε)Δ(u)
        lhs = linear(lambda sp, lr: Element.from_word(
            sp, lr[1], counit(Element.from_word(sp, lr[0]))), du)
        rhs = linear(lambda sp, lr: Element.from_word(
            sp, lr[0], counit(Element.from_word(sp, lr[1]))), du)
        rep.expect(lhs == eu, "counit-left", u=u)
        rep.expect(rhs == eu, "counit-right", u=u)

        # coassociativity via three-slot expansions: (1 ⊗ Δ)Δ(u) keyed
        # (l, rl, rr) against (Δ ⊗ 1)Δ(u) keyed ((ll, lr), r)
        left3: dict = {}
        right3: dict = {}
        for (l, r), c in du.idx.items():
            accumulate(spec, left3, coproduct(Element.from_word(spec, r)).idx, c, (l,))
            accumulate_outer(spec, right3, coproduct(Element.from_word(spec, l)).idx, {r: c})
        rep.expect(left3 == {lk + (r,): v for (lk, r), v in right3.items()},
                   "coassociativity", u=u)

        # coproduct after a horizontal twist: Δ(h(u)) is Δ(u) with 1 ⊗ h(u)
        # in place of 1 ⊗ u and every other left tensorand twisted.  The
        # twist is spelled out from h's definition on a word, not taken from
        # h, and is a bijection on words, so no two terms collide.
        for eps in spec.units:
            lhs_t = coproduct(horizontal(eps, eu))
            row = spec.idx_ops[1][eps.idx]
            acc = {
                ((letter(spec, l[0].n, spec.elements[row[l[0].eps.idx]]),) + l[1:]
                 if l else l, r): c
                for (l, r), c in du.idx.items()
            }
            accumulate_outer(spec, acc, {EMPTY: 1}, horizontal(eps, eu).idx)
            accumulate(spec, acc, {(EMPTY, u): 1}, spec.idx_ops[2][1])
            rhs_t = _element(spec, acc)
            rep.expect(lhs_t == rhs_t, "coproduct-horizontal", u=u, eps=eps, lhs=lhs_t, rhs=rhs_t)

    for (a, ea), (b, eb) in _pairs_total_weight(spec, max_weight):
        lhs_t = coproduct(shuffle(ea, eb))
        rhs_t = tensor_shuffle(coproduct(ea), coproduct(eb))
        rep.expect(lhs_t == rhs_t, "compatibility", u=a, v=b, lhs=lhs_t, rhs=rhs_t)

    # diamond-coproduct law on trivial-character words
    for (a, ea), (b, eb) in _pairs_total_weight(spec, min(max_weight, 5)):
        if any(lt.eps.idx != 1 for lt in a + b):
            continue
        lhs_t = coproduct(diamond(ea, eb))
        da, db = coproduct(ea), coproduct(eb)
        mul = spec.idx_ops[1]
        acc = accumulate_outer(spec, {}, {EMPTY: 1}, diamond(ea, eb).idx)
        for (l1, r1), c1 in da.idx.items():
            if not l1:
                continue
            for (l2, r2), c2 in db.idx.items():
                if not l2:
                    continue
                dpart = diamond(Element.from_word(spec, l1), Element.from_word(spec, l2))
                spart = shuffle(Element.from_word(spec, r1), Element.from_word(spec, r2))
                accumulate_outer(spec, acc, dpart.idx, spart.idx, mul[c1][c2])
        rep.expect(lhs_t == _element(spec, acc), "diamond-coproduct", u=a, v=b)
    return rep


# -- Hopf algebra laws ----------------------------------------------------------------


@_checked
def check_hopf(spec: FieldSpec, max_weight: int = 6, dim_weight: int = 8) -> CheckReport:
    """Antipode axioms, antipode grading, the involution and homomorphism
    properties of S, and the graded dimension formula.

    The dimension family counts the basis words of each weight w up to
    ``dim_weight`` as they stream by, and keeps none of them.  It stops
    before the first weight whose (q - 1) q^(w - 1) words exceed
    ``ff.BUDGET``, read when it runs, the cap at which ``iter_basis_words``
    refuses them."""
    rep = CheckReport("thm-hopf-algebra", spec.q, max_weight)
    for u, eu in _words_up_to(spec, max_weight, min_weight=0):
        du = coproduct(eu)
        target = Element.one(spec).scale(counit(eu))

        # m(S ⊗ 1)Δ(u) and m(1 ⊗ S)Δ(u) against ε(u)·1
        lhs = linear(lambda sp, lr: shuffle(
            antipode(Element.from_word(sp, lr[0])), Element.from_word(sp, lr[1])), du)
        rhs = linear(lambda sp, lr: shuffle(
            Element.from_word(sp, lr[0]), antipode(Element.from_word(sp, lr[1]))), du)
        rep.expect(lhs == target, "antipode-left", u=u, lhs=lhs, rhs=target)
        rep.expect(rhs == target, "antipode-right", u=u, lhs=rhs, rhs=target)
        rep.expect(antipode(eu).weights() in ({word_weight(u)}, set()), "antipode-grading", u=u)

    inv_bound = min(max_weight - 1, 5)
    for u, eu in _words_up_to(spec, inv_bound):
        rep.expect(antipode(antipode(eu)) == eu, "antipode-involution", u=u)
    for (a, ea), (b, eb) in _pairs_total_weight(spec, inv_bound):
        rep.expect(antipode(shuffle(ea, eb)) == shuffle(antipode(ea), antipode(eb)),
                   "antipode-homomorphism", u=a, v=b)

    for w in range(dim_weight + 1):
        expected = (
            1
            if w == 0
            else sum(comb(w - 1, r - 1) * (spec.q - 1) ** r for r in range(1, w + 1))
        )
        if expected > ff.BUDGET:
            break
        got = sum(1 for _ in iter_basis_words(w, spec))
        rep.expect(got == expected, "dimension", w=w, got=got, expected=expected)
    return rep


# -- the two coproduct routes ------------------------------------------------------------


@_checked
def check_coproduct_oracle(
    spec: FieldSpec, max_n: int = 8, table_n: int = 12, word_weight_bound: int = 6
) -> CheckReport:
    """The closed-formula coproduct against the weight-recursive construction,
    the closed form of the depth-one overlap coefficients, and agreement of
    the two coproducts on every trivial-character word within the bound.
    Those words, 2^(w - 1) of weight w, are built from the compositions of w
    in canonical order; no other basis word is built."""
    rep = CheckReport("thm-coproduct-closed-formula", spec.q, max_n)
    one = spec.one
    for n in range(1, max_n + 1):
        direct = coproduct_letter(letter(spec, n, one))
        rec = coproduct_mzv_recursive(n, spec)
        rep.expect(direct == rec, "letter-oracle", n=n, closed=direct, recursive=rec)
    for n in range(1, table_n + 1):
        for j in range(1, n + 1):
            expected = (
                one if (j < n and j % (spec.q - 1) == 0) else spec.zero
            )
            got = delta_coeff(1, n, j, spec)
            rep.expect(got == expected, "delta-table", n=n, j=j, got=got, expected=expected)
    for w in range(1, word_weight_bound + 1):
        # the trivial-character words of weight w, in canonical order
        for parts in sorted(compositions(w), key=lambda c: (len(c), c)):
            u = tuple(letter(spec, n, one) for n in parts)
            rep.expect(coproduct(Element.from_word(spec, u)) == coproduct_mzv_word(u, spec),
                       "word-oracle", u=u)
    return rep


# -- numeric side ----------------------------------------------------------------------------


@_checked
def check_zeta_homomorphism(
    spec: FieldSpec,
    d_max: int = 3,
    max_weight: int = 4,
    prec: int = 32,
    trials: int = 100,
    seed: int = 20260810,
    zeta_prec: int = 20,
    chen_rs: int = 6,
    chen_d: int = 2,
    chen_prec: int = 96,
) -> CheckReport:
    """The power-sum and zeta shuffle homomorphisms on seeded random element
    pairs, plus the exhaustive product formula for depth-one power sums with
    and without character twists.

    The product formula S_d(r) S_d(s) = S_d(r + s) + sum_j D(r, s, j)
    S_d(x_{r+s-j} x_j) reads every S_d from the factorized route, as
    S_{<d+1} - S_{<d}, the way ``amzv powsum`` does.  The route peels one
    letter at a time and does not encode the formula, so both sides are
    values of the production depth-one kernel.  The block runs at its own
    (generous) precision because power sums at degree d sit very deep in u;
    a tight horizon would let the comparison hold vacuously as 0 = 0.
    """
    rep = CheckReport("thm-shuffle-homomorphism", spec.q, d_max)
    rng = Rng(seed)
    for t in range(trials):
        a = random_element(rng, max_weight, 3, spec)
        b = random_element(rng, max_weight, 3, spec)
        ab = shuffle(a, b)
        for d in range(d_max + 1):
            lhs = power_sum_lt_element(ab, d, prec)
            rhs = power_sum_lt_element(a, d, prec) * power_sum_lt_element(b, d, prec)
            rep.expect(lhs.agrees_with(rhs), "powsum-homomorphism",
                       trial=t, d=d, a=a, b=b, lhs=lhs, rhs=rhs)
        zl = zeta_trunc(ab, zeta_prec)
        zr = zeta_trunc(a, zeta_prec) * zeta_trunc(b, zeta_prec)
        rep.expect(zl.agrees_with(zr), "zeta-homomorphism", trial=t, a=a, b=b, lhs=zl, rhs=zr)

    def sd(w, d):
        return power_sum_lt(w, d + 1, chen_prec) - power_sum_lt(w, d, chen_prec)

    # depth-one product formula, twisted and untwisted, exhaustively
    for r in range(1, chen_rs):
        for s in range(1, chen_rs - r + 1):
            for al, be, d in product(spec.units, spec.units, range(chen_d + 1)):
                lhs = sd((letter(spec, r, al),), d) * sd((letter(spec, s, be),), d)
                ab = al * be
                rhs = sd((letter(spec, r + s, ab),), d)
                for j in range(1, r + s):
                    c = delta_coeff(r, s, j, spec)
                    if c.idx == 0:
                        continue
                    w = (letter(spec, r + s - j, ab), letter(spec, j, spec.one))
                    rhs = rhs + sd(w, d).scale(c)
                rep.expect(lhs.agrees_with(rhs), "chen",
                           r=r, s=s, d=d, alpha=al, beta=be, lhs=lhs, rhs=rhs)
    return rep


# -- aggregate runner --------------------------------------------------------------------------


def run_default_matrix(
    specs=None,
    weight_bound: int = 6,
    d_max: int = 3,
    trials: int = 100,
    seed: int = 20260810,
) -> list[CheckReport]:
    """The default verification matrix over ``specs`` (by default F_2, F_3
    and F_4).  Zeta checks run at q = 2 and q = 3 only (the numeric side of
    the acceptance gate); everything else runs on every field."""
    reports = []
    for spec in specs or [field_from_q(q) for q in (2, 3, 4)]:
        reports.append(check_algebra(spec, weight_bound))
        reports.append(check_coalgebra(spec, weight_bound))
        reports.append(check_hopf(spec, weight_bound))
        reports.append(check_coproduct_oracle(spec))
        if spec.q in (2, 3):
            reports.append(
                check_zeta_homomorphism(
                    spec, d_max=d_max, trials=trials, seed=seed
                )
            )
    return reports
