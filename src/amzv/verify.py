"""Theorem-by-theorem verification harness.

Each ``check_*`` function verifies one headline statement (plus its close
relatives) exhaustively over all basis words within a weight bound, or over a
seeded stream of random elements where the statement is element-level.  The
result is a :class:`CheckReport`.  Every identity instance is one call of
:meth:`CheckReport.expect`, which counts it and, when the identity fails,
records the line ``family k=v ...``: the identity's family, then the shown
words, operands and both sides in canonical text, so a failure is replayable
without rerunning the harness.

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
from .ff import FieldSpec, field_from_q, memoized
from .products import delta_coeff, diamond, horizontal, shuffle, triangle
from .words import (
    EMPTY,
    Element,
    TensorElement,
    accumulate,
    accumulate_outer,
    basis_words,
    format_word,
    letter,
    linear,
    word_weight,
    _clean,
)
from .zeta import (
    DEFAULT_BUDGET,
    ZetaArray,
    power_sum_d,
    power_sum_lt_element,
    zeta_trunc,
)


@dataclass
class CheckReport:
    """Outcome of one theorem check at one field size."""

    theorem_id: str
    q: int
    bound: int
    params: dict
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    millis: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

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
        words = _basis(spec, w)
        word = words[rng.below(len(words))]
        accumulate(acc, {word: spec.unit_from_exp(rng.below(spec.q - 1))})
    return Element.from_terms(spec, acc)


@memoized("basis_words")
def _basis(spec: FieldSpec, w: int) -> tuple:
    return tuple(basis_words(w, spec))


def _with_elements(spec: FieldSpec, w: int) -> list:
    """The basis words of weight w, each paired with its Element.  Built on
    each call, not memoized, so the harness holds no Element per basis
    word."""
    return [(u, Element.from_word(spec, u)) for u in _basis(spec, w)]


def _words_up_to(spec: FieldSpec, bound: int, min_weight: int = 1):
    for w in range(min_weight, bound + 1):
        yield from _with_elements(spec, w)


def _pairs_total_weight(spec: FieldSpec, bound: int):
    for wa in range(1, bound):
        for wb in range(1, bound - wa + 1):
            yield from product(_with_elements(spec, wa), _with_elements(spec, wb))


def _triples_total_weight(spec: FieldSpec, bound: int):
    for wa in range(1, bound - 1):
        for wb in range(1, bound - wa):
            for wc in range(1, bound - wa - wb + 1):
                yield from product(_with_elements(spec, wa), _with_elements(spec, wb),
                                   _with_elements(spec, wc))


# -- algebra laws ---------------------------------------------------------------


@_checked
def check_algebra(spec: FieldSpec, max_total_weight: int = 6) -> CheckReport:
    """Commutativity/associativity of the diamond and shuffle products, the
    triangle-product laws, and the horizontal-map laws.

    Pairs run up to total weight ``max_total_weight``; triples (and the
    horizontal pair laws) up to one less.
    """
    rep = CheckReport(
        "thm-commutative-algebra",
        spec.q,
        max_total_weight,
        {"pair_bound": max_total_weight, "triple_bound": max_total_weight - 1},
    )
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
    rep = CheckReport("thm-compatibility-coassociativity", spec.q, max_weight, {})
    for u, eu in _words_up_to(spec, max_weight):
        du = coproduct(eu)
        wu = word_weight(u)
        rep.expect(all(word_weight(l) + word_weight(r) == wu for l, r in du.terms),
                   "coproduct-grading", u=u)
        left_unit = [(l, r) for l, r in du.terms if not l]
        rep.expect(left_unit == [(EMPTY, u)] and du.terms[(EMPTY, u)].idx == 1,
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
        for (l, r), c in du.terms.items():
            accumulate(left3, coproduct(Element.from_word(spec, r)).terms, c, (l,))
            accumulate_outer(right3, coproduct(Element.from_word(spec, l)).terms, {r: c})
        rep.expect(_clean(left3) == {lk + (r,): v for (lk, r), v in _clean(right3).items()},
                   "coassociativity", u=u)

        if not u:
            continue
        # coproduct after a horizontal twist
        for eps in spec.units:
            lhs_t = coproduct(horizontal(eps, eu))
            # twist every left tensorand but the unit; the twist is a
            # bijection on words, so no two terms collide
            twisted = {
                (next(iter(horizontal(eps, Element.from_word(spec, l)).terms))
                 if l else l, r): c
                for (l, r), c in du.terms.items()
            }
            (hw, hc), = horizontal(eps, eu).terms.items()
            rhs_t = (
                TensorElement.from_terms(spec, twisted)
                + TensorElement.from_pair(spec, EMPTY, hw, hc)
                - TensorElement.from_pair(spec, EMPTY, u)
            )
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
        acc = accumulate_outer({}, {EMPTY: spec.one}, diamond(ea, eb).terms)
        for (l1, r1), c1 in da.terms.items():
            if not l1:
                continue
            for (l2, r2), c2 in db.terms.items():
                if not l2:
                    continue
                dpart = diamond(Element.from_word(spec, l1), Element.from_word(spec, l2))
                spart = shuffle(Element.from_word(spec, r1), Element.from_word(spec, r2))
                accumulate_outer(acc, dpart.terms, spart.terms, c1 * c2)
        rep.expect(lhs_t == TensorElement.from_terms(spec, acc), "diamond-coproduct", u=a, v=b)
    return rep


# -- Hopf algebra laws ----------------------------------------------------------------


@_checked
def check_hopf(spec: FieldSpec, max_weight: int = 6, dim_weight: int = 8) -> CheckReport:
    """Antipode axioms, antipode grading, the involution and homomorphism
    properties of S, and the graded dimension formula."""
    rep = CheckReport(
        "thm-hopf-algebra", spec.q, max_weight, {"dim_weight": dim_weight}
    )
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
        got = len(_basis(spec, w))
        rep.expect(got == expected, "dimension", w=w, got=got, expected=expected)
    return rep


# -- the two coproduct routes ------------------------------------------------------------


@_checked
def check_coproduct_oracle(
    spec: FieldSpec, max_n: int = 8, table_n: int = 12, word_weight_bound: int = 6
) -> CheckReport:
    """The closed-formula coproduct against the weight-recursive construction,
    the closed form of the depth-one overlap coefficients, and agreement of
    the two coproducts on every trivial-character word within the bound."""
    rep = CheckReport(
        "thm-coproduct-closed-formula",
        spec.q,
        max_n,
        {"table_n": table_n, "word_weight": word_weight_bound},
    )
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
    for u, eu in _words_up_to(spec, word_weight_bound):
        if all(lt.eps.idx == 1 for lt in u):
            rep.expect(coproduct(eu) == coproduct_mzv_word(u, spec), "word-oracle", u=u)
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
    budget: int = DEFAULT_BUDGET,
) -> CheckReport:
    """The power-sum and zeta shuffle homomorphisms on seeded random element
    pairs, plus the exhaustive product formula for depth-one power sums with
    and without character twists.

    The product-formula block runs at its own (generous) precision because
    power sums at degree d sit very deep in u; a tight horizon would let the
    comparison hold vacuously as 0 = 0.
    """
    rep = CheckReport(
        "thm-shuffle-homomorphism",
        spec.q,
        d_max,
        {
            "max_weight": max_weight,
            "prec": prec,
            "trials": trials,
            "seed": seed,
            "zeta_prec": zeta_prec,
            "chen_rs": chen_rs,
            "chen_d": chen_d,
            "chen_prec": chen_prec,
        },
    )
    rng = Rng(seed)
    for t in range(trials):
        a = random_element(rng, max_weight, 3, spec)
        b = random_element(rng, max_weight, 3, spec)
        ab = shuffle(a, b)
        for d in range(d_max + 1):
            lhs = power_sum_lt_element(ab, d, prec, budget)
            rhs = power_sum_lt_element(a, d, prec, budget) * power_sum_lt_element(
                b, d, prec, budget
            )
            rep.expect(lhs.agrees_with(rhs), "powsum-homomorphism",
                       trial=t, d=d, a=a, b=b, lhs=lhs, rhs=rhs)
        zl = zeta_trunc(ab, zeta_prec, budget)
        zr = zeta_trunc(a, zeta_prec, budget) * zeta_trunc(b, zeta_prec, budget)
        rep.expect(zl.agrees_with(zr), "zeta-homomorphism", trial=t, a=a, b=b, lhs=zl, rhs=zr)

    # depth-one product formula, twisted and untwisted, exhaustively
    for r in range(1, chen_rs):
        for s in range(1, chen_rs - r + 1):
            for al, be, d in product(spec.units, spec.units, range(chen_d + 1)):
                lhs = power_sum_d(
                    ZetaArray((al,), (r,)), d, chen_prec, budget
                ) * power_sum_d(ZetaArray((be,), (s,)), d, chen_prec, budget)
                rhs = power_sum_d(
                    ZetaArray((al * be,), (r + s,)), d, chen_prec, budget
                )
                for j in range(1, r + s):
                    c = delta_coeff(r, s, j, spec)
                    if c.idx == 0:
                        continue
                    rhs = rhs + power_sum_d(
                        ZetaArray((al * be, spec.one), (r + s - j, j)),
                        d,
                        chen_prec,
                        budget,
                    ).scale(c)
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
