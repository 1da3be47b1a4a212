"""Theorem-by-theorem verification harness.

Each ``check_*`` function verifies one headline statement (plus its close
relatives) exhaustively over all basis words within a weight bound, or over a
seeded stream of random elements where the statement is element-level.  The
result is a :class:`CheckReport` whose failures render both sides of the
offending identity in canonical text, so a failure is replayable without
rerunning the harness.

Reports are deterministic functions of (check, q, bounds, seed); timings are
informational only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from .ff import FieldSpec, memoized
from .products import delta_coeff, diamond, horizontal, shuffle, triangle
from .words import (
    EMPTY,
    Element,
    TensorElement,
    accumulate,
    accumulate_outer,
    basis_words,
    format_element,
    format_tensor,
    format_word,
    letter,
    linear,
    word_weight,
    _clean,
)
from .zeta import (
    DEFAULT_BUDGET,
    ZetaArray,
    format_laurent,
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


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.millis = int((time.perf_counter() - self.t0) * 1000)
        return False


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


def _words_up_to(spec: FieldSpec, bound: int, min_weight: int = 1):
    for w in range(min_weight, bound + 1):
        yield from _basis(spec, w)


def _pairs_total_weight(spec: FieldSpec, bound: int):
    for wa in range(1, bound):
        for wb in range(1, bound - wa + 1):
            for a in _basis(spec, wa):
                for b in _basis(spec, wb):
                    yield a, b


# -- algebra laws ---------------------------------------------------------------


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
    units = [spec.unit_from_exp(j) for j in range(spec.q - 1)]
    with _Timer() as tm:
        for a, b in _pairs_total_weight(spec, max_total_weight):
            ea, eb = Element.from_word(spec, a), Element.from_word(spec, b)
            ab, ba = shuffle(ea, eb), shuffle(eb, ea)
            rep.instances += 1
            if ab != ba:
                rep.failures.append(
                    f"shuffle-comm u={format_word(a, spec)} v={format_word(b, spec)} "
                    f"lhs={format_element(ab)} rhs={format_element(ba)}"
                )
            dab, dba = diamond(ea, eb), diamond(eb, ea)
            rep.instances += 1
            if dab != dba:
                rep.failures.append(
                    f"diamond-comm u={format_word(a, spec)} v={format_word(b, spec)} "
                    f"lhs={format_element(dab)} rhs={format_element(dba)}"
                )
            # decomposition and head lemmas for the triangle product
            rep.instances += 1
            lhs = triangle(ea, eb) + triangle(eb, ea) + dab
            if ab != lhs:
                rep.failures.append(
                    f"shuffle-decomposition u={format_word(a, spec)} "
                    f"v={format_word(b, spec)} lhs={format_element(lhs)} "
                    f"rhs={format_element(ab)}"
                )
            rep.instances += 1
            head = diamond(Element.from_word(spec, a[:1]), Element.from_word(spec, b[:1]))
            tailsh = shuffle(Element.from_word(spec, a[1:]), Element.from_word(spec, b[1:]))
            if dab != triangle(head, tailsh):
                rep.failures.append(
                    f"diamond-head u={format_word(a, spec)} v={format_word(b, spec)}"
                )

        triple_bound = max_total_weight - 1
        for wa in range(1, triple_bound - 1):
            for wb in range(1, triple_bound - wa):
                for wc in range(1, triple_bound - wa - wb + 1):
                    for a in _basis(spec, wa):
                        ea = Element.from_word(spec, a)
                        for b in _basis(spec, wb):
                            eb = Element.from_word(spec, b)
                            sab = shuffle(ea, eb)
                            dab = diamond(ea, eb)
                            tab = triangle(ea, eb)
                            for c in _basis(spec, wc):
                                ec = Element.from_word(spec, c)
                                rep.instances += 4
                                if shuffle(sab, ec) != shuffle(ea, shuffle(eb, ec)):
                                    rep.failures.append(
                                        "shuffle-assoc "
                                        f"u={format_word(a, spec)} v={format_word(b, spec)} "
                                        f"w={format_word(c, spec)}"
                                    )
                                if diamond(dab, ec) != diamond(ea, diamond(eb, ec)):
                                    rep.failures.append(
                                        "diamond-assoc "
                                        f"u={format_word(a, spec)} v={format_word(b, spec)} "
                                        f"w={format_word(c, spec)}"
                                    )
                                if triangle(tab, ec) != triangle(ea, shuffle(eb, ec)):
                                    rep.failures.append(
                                        "triangle-assoc-law "
                                        f"u={format_word(a, spec)} v={format_word(b, spec)} "
                                        f"w={format_word(c, spec)}"
                                    )
                                x = diamond(tab, ec)
                                if x != diamond(ea, triangle(ec, eb)) or x != triangle(
                                    diamond(ea, ec), eb
                                ):
                                    rep.failures.append(
                                        "triangle-diamond-law "
                                        f"u={format_word(a, spec)} v={format_word(b, spec)} "
                                        f"w={format_word(c, spec)}"
                                    )

        # horizontal maps: composition on words, distributivity over diamond
        for w in _words_up_to(spec, max_total_weight - 1):
            ew = Element.from_word(spec, w)
            for al in units:
                for be in units:
                    rep.instances += 1
                    if horizontal(al, horizontal(be, ew)) != horizontal(al * be, ew):
                        rep.failures.append(
                            f"horizontal-composition w={format_word(w, spec)}"
                        )
        for a, b in _pairs_total_weight(spec, max_total_weight - 1):
            ea, eb = Element.from_word(spec, a), Element.from_word(spec, b)
            for al in units:
                fa = horizontal(al, ea)
                for be in units:
                    rep.instances += 1
                    lhs = diamond(fa, horizontal(be, eb))
                    rhs = horizontal(al * be, diamond(ea, eb))
                    if lhs != rhs:
                        rep.failures.append(
                            f"horizontal-diamond a={format_word(a, spec)} "
                            f"b={format_word(b, spec)} alpha={spec.format_elem(al)} "
                            f"beta={spec.format_elem(be)} lhs={format_element(lhs)} "
                            f"rhs={format_element(rhs)}"
                        )
    rep.millis = tm.millis
    return rep


# -- coalgebra laws ----------------------------------------------------------------


def check_coalgebra(spec: FieldSpec, max_weight: int = 6) -> CheckReport:
    """Compatibility of the coproduct with the shuffle product, its
    coassociativity, the counit axioms, the grading, the shape of the
    unit tensorand, the horizontal-map law for the coproduct and the
    diamond-coproduct law."""
    rep = CheckReport("thm-compatibility-coassociativity", spec.q, max_weight, {})
    units = [spec.unit_from_exp(j) for j in range(spec.q - 1)]
    with _Timer() as tm:
        for u in _words_up_to(spec, max_weight):
            eu = Element.from_word(spec, u)
            du = coproduct(eu)
            wu = word_weight(u)

            rep.instances += 1
            if any(word_weight(l) + word_weight(r) != wu for l, r in du.terms):
                rep.failures.append(f"coproduct-grading u={format_word(u, spec)}")
            rep.instances += 1
            left_unit = [(l, r) for l, r in du.terms if not l]
            if left_unit != [(EMPTY, u)] or du.terms[(EMPTY, u)].idx != 1:
                rep.failures.append(f"unit-tensorand u={format_word(u, spec)}")

            # counit axioms: (ε ⊗ 1)Δ(u) = u = (1 ⊗ ε)Δ(u)
            lhs = linear(lambda sp, lr: Element.from_word(
                sp, lr[1], counit(Element.from_word(sp, lr[0]))), du)
            rhs = linear(lambda sp, lr: Element.from_word(
                sp, lr[0], counit(Element.from_word(sp, lr[1]))), du)
            rep.instances += 2
            if lhs != eu:
                rep.failures.append(f"counit-left u={format_word(u, spec)}")
            if rhs != eu:
                rep.failures.append(f"counit-right u={format_word(u, spec)}")

            # coassociativity via three-slot expansions: (1 ⊗ Δ)Δ(u) keyed
            # (l, rl, rr) against (Δ ⊗ 1)Δ(u) keyed ((ll, lr), r)
            rep.instances += 1
            left3: dict = {}
            right3: dict = {}
            for (l, r), c in du.terms.items():
                accumulate(left3, coproduct(Element.from_word(spec, r)).terms, c, (l,))
                accumulate_outer(right3, coproduct(Element.from_word(spec, l)).terms, {r: c})
            if _clean(left3) != {lk + (r,): v for (lk, r), v in _clean(right3).items()}:
                rep.failures.append(f"coassociativity u={format_word(u, spec)}")

            # coproduct after a horizontal twist
            if u:
                for eps in units:
                    rep.instances += 1
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
                    if lhs_t != rhs_t:
                        rep.failures.append(
                            f"coproduct-horizontal u={format_word(u, spec)} "
                            f"eps={spec.format_elem(eps)} lhs={format_tensor(lhs_t)} "
                            f"rhs={format_tensor(rhs_t)}"
                        )

        for a, b in _pairs_total_weight(spec, max_weight):
            ea, eb = Element.from_word(spec, a), Element.from_word(spec, b)
            rep.instances += 1
            lhs_t = coproduct(shuffle(ea, eb))
            rhs_t = tensor_shuffle(coproduct(ea), coproduct(eb))
            if lhs_t != rhs_t:
                rep.failures.append(
                    f"compatibility u={format_word(a, spec)} v={format_word(b, spec)} "
                    f"lhs={format_tensor(lhs_t)} rhs={format_tensor(rhs_t)}"
                )

        # diamond-coproduct law on trivial-character words
        for a, b in _pairs_total_weight(spec, min(max_weight, 5)):
            if any(lt.eps.idx != 1 for lt in a + b):
                continue
            ea, eb = Element.from_word(spec, a), Element.from_word(spec, b)
            rep.instances += 1
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
            rhs_t = TensorElement.from_terms(spec, acc)
            if lhs_t != rhs_t:
                rep.failures.append(
                    f"diamond-coproduct u={format_word(a, spec)} v={format_word(b, spec)}"
                )
    rep.millis = tm.millis
    return rep


# -- Hopf algebra laws ----------------------------------------------------------------


def check_hopf(spec: FieldSpec, max_weight: int = 6, dim_weight: int = 8) -> CheckReport:
    """Antipode axioms, antipode grading, the involution and homomorphism
    properties of S, and the graded dimension formula."""
    rep = CheckReport(
        "thm-hopf-algebra", spec.q, max_weight, {"dim_weight": dim_weight}
    )
    with _Timer() as tm:
        for u in _words_up_to(spec, max_weight, min_weight=0):
            eu = Element.from_word(spec, u)
            du = coproduct(eu)
            su = antipode(eu)
            target = Element.one(spec).scale(counit(eu))

            # m(S ⊗ 1)Δ(u) and m(1 ⊗ S)Δ(u) against ε(u)·1
            lhs = linear(lambda sp, lr: shuffle(
                antipode(Element.from_word(sp, lr[0])), Element.from_word(sp, lr[1])), du)
            rhs = linear(lambda sp, lr: shuffle(
                Element.from_word(sp, lr[0]), antipode(Element.from_word(sp, lr[1]))), du)
            rep.instances += 2
            if lhs != target:
                rep.failures.append(
                    f"antipode-left u={format_word(u, spec)} lhs={format_element(lhs)} "
                    f"rhs={format_element(target)}"
                )
            if rhs != target:
                rep.failures.append(
                    f"antipode-right u={format_word(u, spec)} lhs={format_element(rhs)} "
                    f"rhs={format_element(target)}"
                )
            rep.instances += 1
            if su.weights() not in ({word_weight(u)}, set()):
                rep.failures.append(f"antipode-grading u={format_word(u, spec)}")

        inv_bound = min(max_weight - 1, 5)
        for u in _words_up_to(spec, inv_bound):
            eu = Element.from_word(spec, u)
            rep.instances += 1
            if antipode(antipode(eu)) != eu:
                rep.failures.append(f"antipode-involution u={format_word(u, spec)}")
        for a, b in _pairs_total_weight(spec, inv_bound):
            ea, eb = Element.from_word(spec, a), Element.from_word(spec, b)
            rep.instances += 1
            if antipode(shuffle(ea, eb)) != shuffle(antipode(ea), antipode(eb)):
                rep.failures.append(
                    f"antipode-homomorphism u={format_word(a, spec)} "
                    f"v={format_word(b, spec)}"
                )

        for w in range(dim_weight + 1):
            rep.instances += 1
            expected = (
                1
                if w == 0
                else sum(comb(w - 1, r - 1) * (spec.q - 1) ** r for r in range(1, w + 1))
            )
            got = len(_basis(spec, w))
            if got != expected:
                rep.failures.append(f"dimension w={w} got={got} expected={expected}")
    rep.millis = tm.millis
    return rep


# -- the two coproduct routes ------------------------------------------------------------


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
    with _Timer() as tm:
        one = spec.one
        for n in range(1, max_n + 1):
            rep.instances += 1
            direct = coproduct_letter(letter(spec, n, one))
            rec = coproduct_mzv_recursive(n, spec)
            if direct != rec:
                rep.failures.append(
                    f"letter-oracle n={n} closed={format_tensor(direct)} "
                    f"recursive={format_tensor(rec)}"
                )
        for n in range(1, table_n + 1):
            for j in range(1, n + 1):
                rep.instances += 1
                expected = (
                    one if (j < n and j % (spec.q - 1) == 0) else spec.zero
                )
                got = delta_coeff(1, n, j, spec)
                if got != expected:
                    rep.failures.append(
                        f"delta-table n={n} j={j} got={spec.format_elem(got)} "
                        f"expected={spec.format_elem(expected)}"
                    )
        for u in _words_up_to(spec, word_weight_bound):
            if any(lt.eps.idx != 1 for lt in u):
                continue
            rep.instances += 1
            if coproduct(Element.from_word(spec, u)) != coproduct_mzv_word(u, spec):
                rep.failures.append(f"word-oracle u={format_word(u, spec)}")
    rep.millis = tm.millis
    return rep


# -- numeric side ----------------------------------------------------------------------------


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
    units = [spec.unit_from_exp(j) for j in range(spec.q - 1)]
    with _Timer() as tm:
        for t in range(trials):
            a = random_element(rng, max_weight, 3, spec)
            b = random_element(rng, max_weight, 3, spec)
            ab = shuffle(a, b)
            for d in range(d_max + 1):
                rep.instances += 1
                lhs = power_sum_lt_element(ab, d, prec, budget)
                rhs = power_sum_lt_element(a, d, prec, budget) * power_sum_lt_element(
                    b, d, prec, budget
                )
                if not lhs.agrees_with(rhs):
                    rep.failures.append(
                        f"powsum-homomorphism trial={t} d={d} a={format_element(a)} "
                        f"b={format_element(b)} lhs={format_laurent(lhs)} "
                        f"rhs={format_laurent(rhs)}"
                    )
            rep.instances += 1
            zl = zeta_trunc(ab, zeta_prec, budget)
            zr = zeta_trunc(a, zeta_prec, budget) * zeta_trunc(b, zeta_prec, budget)
            if not zl.agrees_with(zr):
                rep.failures.append(
                    f"zeta-homomorphism trial={t} a={format_element(a)} "
                    f"b={format_element(b)} lhs={format_laurent(zl)} "
                    f"rhs={format_laurent(zr)}"
                )

        # depth-one product formula, twisted and untwisted, exhaustively
        for r in range(1, chen_rs):
            for s in range(1, chen_rs - r + 1):
                for al in units:
                    for be in units:
                        for d in range(chen_d + 1):
                            rep.instances += 1
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
                            if not lhs.agrees_with(rhs):
                                rep.failures.append(
                                    f"chen r={r} s={s} d={d} "
                                    f"alpha={spec.format_elem(al)} "
                                    f"beta={spec.format_elem(be)} "
                                    f"lhs={format_laurent(lhs)} rhs={format_laurent(rhs)}"
                                )
    rep.millis = tm.millis
    return rep


# -- aggregate runner --------------------------------------------------------------------------


def run_default_matrix(
    qs=(2, 3, 4),
    weight_bound: int = 6,
    d_max: int = 3,
    trials: int = 100,
    seed: int = 20260810,
    make_spec=None,
) -> list[CheckReport]:
    """The default verification matrix.  Zeta checks run on the prime fields
    only (the numeric side of the acceptance gate); everything else runs on
    every q."""
    from .ff import field_from_q

    make_spec = make_spec or field_from_q
    reports = []
    for q in qs:
        spec = make_spec(q)
        reports.append(check_algebra(spec, weight_bound))
        reports.append(check_coalgebra(spec, weight_bound))
        reports.append(check_hopf(spec, weight_bound))
        reports.append(check_coproduct_oracle(spec))
        if q in (2, 3):
            reports.append(
                check_zeta_homomorphism(
                    spec, d_max=d_max, trials=trials, seed=seed
                )
            )
    return reports
