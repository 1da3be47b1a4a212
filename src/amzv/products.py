"""The diamond, shuffle and triangle products on the word algebra.

All three products are F_q-bilinear and defined by mutual recursion on words.
For nonempty words a = x_{a1,alpha}·a' and b = x_{b1,beta}·b' (writing n for
a1 + b1 and juxtaposition for concatenation):

    a ⋄ b = x_{n,alpha·beta}(a' ⧢ b')
            + sum_{i+j=n, i,j>=1} D(a1,b1,j) · x_{i,alpha·beta}(x_{j,1} ⧢ (a' ⧢ b'))
    a ⧢ b = x_{a1,alpha}(a' ⧢ b) + x_{b1,beta}(a ⧢ b') + a ⋄ b
    a ▷ b = x_{a1,alpha}(a' ⧢ b)

with the empty word acting as unit for ⋄ and ⧢, and 1 ▷ a = a ▷ 1 = a.
The overlap coefficients are

    D(r,s,i) = (-1)^(r-1)·C(i-1,r-1) + (-1)^(s-1)·C(i-1,s-1)   if (q-1) | i,
               0 otherwise,

evaluated over the integers first and reduced mod p afterwards, so the signed
sum is never reduced prematurely.

Word-level results are memoized per field (:func:`amzv.ff.memoized`); the
associativity and compatibility checks would otherwise recompute identical
subproblems exponentially often.  The word-level cores return index maps
(``_delta`` a field index); only the public functions build an Element.
Empty operands are answered before the memo is consulted, with ``{v: 1}``.
"""

from __future__ import annotations

from math import comb

from .ff import FieldElem, FieldSpec, check_field, memoized
from .words import EMPTY, Element, Word, accumulate, accumulate_bilinear, bilinear, letter, _element


def binom_mod_p(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for integer a and b >= 0.

    Nonnegative a uses Lucas' theorem digitwise in base p; negative a is
    reflected through C(a, b) = (-1)^b C(b - a - 1, b).  C(a, 0) = 1 always.
    """
    if b < 0:
        raise ValueError("lower index must be >= 0")
    if b == 0:
        return 1 % p
    if a < 0:
        sign = -1 if b % 2 else 1
        return (sign * binom_mod_p(b - a - 1, b, p)) % p
    out = 1
    while a or b:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = (out * comb(da, db)) % p
        a //= p
        b //= p
    return out


def delta_coeff(r: int, s: int, i: int, spec: FieldSpec) -> FieldElem:
    """The overlap coefficient D(r,s,i) as an element of the prime subfield."""
    if r < 1 or s < 1 or not 1 <= i <= r + s - 1:
        raise ValueError(f"delta index out of range: r={r} s={s} i={i}")
    return spec.elements[_delta(spec, r, s, i)]


@memoized("delta")
def _delta(spec: FieldSpec, r: int, s: int, i: int) -> int:
    if i % (spec.q - 1) == 0:
        m = (-1) ** (r - 1) * comb(i - 1, r - 1) + (-1) ** (s - 1) * comb(i - 1, s - 1)
    else:
        m = 0
    return spec.residue(m).idx


# -- word-level recursion ------------------------------------------------------


def _shuffle_words(spec: FieldSpec, u: Word, v: Word) -> dict:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    return _shuffle_step(spec, u, v)


@memoized("shuffle")
def _shuffle_step(spec: FieldSpec, u: Word, v: Word) -> dict:
    acc = accumulate(spec, {}, _shuffle_words(spec, u[1:], v), head=u[:1])
    accumulate(spec, acc, _shuffle_words(spec, u, v[1:]), head=v[:1])
    return accumulate(spec, acc, _diamond_words(spec, u, v))


def _diamond_words(spec: FieldSpec, u: Word, v: Word) -> dict:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    return _diamond_step(spec, u, v)


@memoized("diamond")
def _diamond_step(spec: FieldSpec, u: Word, v: Word) -> dict:
    x, y = u[0], v[0]
    a1, b1 = x.n, y.n
    tail = _shuffle_words(spec, u[1:], v[1:])
    eab = spec.elements[spec.idx_ops[1][x.eps.idx][y.eps.idx]]
    n = a1 + b1
    head = letter(spec, n, eab)
    acc: dict = {(head,) + w: c for w, c in tail.items()}
    for j in range(1, n):
        dc = _delta(spec, a1, b1, j)
        if dc == 0:
            continue
        accumulate_bilinear(spec, acc, _shuffle_words, {(letter(spec, j, spec.one),): 1},
                            tail, dc, (letter(spec, n - j, eab),))
    return acc


# -- bilinear wrappers -----------------------------------------------------------


def shuffle(a: Element, b: Element) -> Element:
    """The shuffle product; commutative, associative, unit 1."""
    return bilinear(_shuffle_words, a, b)


def diamond(a: Element, b: Element) -> Element:
    """The diamond (overlap) product; commutative, associative, unit 1."""
    return bilinear(_diamond_words, a, b)


def triangle(a: Element, b: Element) -> Element:
    """The triangle product a ▷ b = x_{a1,alpha}(a' ⧢ b); not commutative.
    Each word u of ``a`` sums u's first letter times u' ⧢ b in one pass;
    1 ▷ b = b."""
    spec = a.spec
    if b.spec is not spec:
        check_field(spec, b.spec)
    acc: dict = {}
    for u, c in a.idx.items():
        if u:
            accumulate_bilinear(spec, acc, _shuffle_words, {u[1:]: 1}, b.idx, c, u[:1])
        else:
            accumulate(spec, acc, b.idx, c)
    return _element(spec, acc)


def horizontal(alpha: FieldElem, a: Element) -> Element:
    """The map sending a nonempty word x_{u,eps}·u' to x_{u,alpha·eps}·u'
    (the empty word is fixed).  Weight-preserving and linear."""
    if alpha.idx == 0:
        raise ValueError("horizontal maps are indexed by units")
    spec = a.spec
    check_field(spec, alpha.spec)
    if alpha.idx == 1:
        return a
    elements, row = spec.elements, spec.idx_ops[1][alpha.idx]
    # a bijection on words, so no two terms land on one word
    return _element(spec, {
        (letter(spec, w[0].n, elements[row[w[0].eps.idx]]),) + w[1:] if w else w: c
        for w, c in a.idx.items()
    })


def bracket(w: Word, spec: FieldSpec) -> Element:
    """The signed overlap-weighted shuffle of the letters of a word with all
    characters trivial:

        [x_{i_1} ... x_{i_m}] = (-1)^m · prod_t D(1, wt+1, i_t) · (x_{i_1} ⧢ ... ⧢ x_{i_m})

    where wt is the weight of the word; [1] = 1.
    """
    for lt in w:
        if lt.eps.idx != 1:
            raise ValueError("bracket is defined on trivially-charactered words only")
    if not w:
        return Element.one(spec)
    return _element(spec, _bracket(spec, tuple(lt.n for lt in w)))


@memoized("bracket")
def _bracket(spec: FieldSpec, comp: tuple[int, ...]) -> dict:
    """[x_{i_1} ... x_{i_m}] for the nonempty composition (i_1, ..., i_m)."""
    wt = sum(comp)
    mul = spec.idx_ops[1]
    coeff = spec.idx_ops[2][1] if len(comp) % 2 else 1
    for n in comp:
        coeff = mul[coeff][_delta(spec, 1, wt + 1, n)]
        if coeff == 0:
            return {}
    acc = {EMPTY: coeff}
    for n in comp:
        acc = accumulate_bilinear(spec, {}, _shuffle_words, acc, {(letter(spec, n, spec.one),): 1})
    return acc
