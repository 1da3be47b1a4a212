"""Coproduct, counit and antipode for the shuffle algebra of words.

The coproduct of a letter is given by a closed formula built from the bracket
operator (no induction on weight):

    Δ(x_{n,eps}) = 1 ⊗ x_{n,eps}
                 + sum_{r>=1, a word over the trivial-character alphabet,
                        r + weight(a) = n}
                   C(r + depth(a) - 2, depth(a)) · x_{r,eps} ⊗ [a]

where the sum includes the empty word a = 1, whose summand is x_{n,eps} ⊗ 1
because C(n-2, 0) = 1 and [1] = 1.  Binomials follow the generalized
convention (C(-1, 0) = 1).

On deeper words it is pushed down by one recursion step per letter: writing
u = x·v with x a letter and Δ(x) = 1 ⊗ x + Σ a ⊗ b (each a a single letter),
Δ(v) = Σ c ⊗ d,

    Δ(u) = 1 ⊗ u + Σ (a·c) ⊗ (b ⧢ d),

where a·c is concatenation.  Everything extends linearly.

A second, fully independent construction of the depth-one coproduct on the
trivial-character subalgebra is kept as a cross-check oracle: it recurses on
weight through

    Δ(x_w) = Δ(x_1) ⧢ Δ(x_{w-1}) - Δ(x_1 x_{w-1}) - Δ(x_{w-1} x_1)
             - sum_{0<j<w} D(1,w-1,j) Δ(x_{w-j} x_j)

with depth-two coproducts expanded by the same one-step rule (using the
triangle product on left tensorands, which need not be single letters while
the recursion is still unrolling).  Agreement of the two routes is one of the
strongest internal consistency checks in the package.

The antipode comes from the connected graded recursion: S(1) = 1 and, for a
word u of positive weight with Δ(u) = 1 ⊗ u + u ⊗ 1 + Σ u' ⊗ u'' (both slots
of positive weight),

    S(u) = -u - Σ S(u') ⧢ u''.

The recursion sums it in one pass: each word-level S(u') ⧢ u'' goes straight
into S(u)'s dict through ``words.accumulate_bilinear``.  As in ``products``,
the word-level cores and their memos hold index maps (keyed by pairs of
words for Δ); only the public functions build an Element.
"""

from __future__ import annotations

from .ff import FieldElem, FieldSpec, check_field, memoized
from .products import binom_mod_p, delta_coeff, triangle, _bracket, _shuffle_words
from .words import (
    EMPTY,
    Element,
    Letter,
    TensorElement,
    Word,
    accumulate,
    accumulate_bilinear,
    accumulate_outer,
    compositions,
    letter,
    linear,
    _element,
)


def coproduct_letter(x: Letter) -> TensorElement:
    """Δ of a single letter, by the closed formula above."""
    return _element(x.eps.spec, _coproduct_letter(x.eps.spec, x))


@memoized("coproduct_letter")
def _coproduct_letter(spec: FieldSpec, x: Letter) -> dict:
    n, eps = x.n, x.eps
    acc: dict = {(EMPTY, (x,)): 1}
    for r in range(1, n + 1):
        left = (letter(spec, r, eps),)
        for comp in compositions(n - r):
            m = len(comp)
            cb = binom_mod_p(r + m - 2, m, spec.p)
            if cb == 0:
                continue
            br = _bracket(spec, comp) if comp else {EMPTY: 1}
            if br:
                accumulate_outer(spec, acc, {left: 1}, br, spec.residue(cb).idx)
    return acc


def _coproduct_word(spec: FieldSpec, u: Word) -> dict:
    if not u:
        return {(EMPTY, EMPTY): 1}
    if len(u) == 1:
        return _coproduct_letter(spec, u[0])
    return _coproduct_step(spec, u)


@memoized("coproduct")
def _coproduct_step(spec: FieldSpec, u: Word) -> dict:
    head, v = u[0], u[1:]
    dh = _coproduct_letter(spec, head)
    dv = _coproduct_word(spec, v)
    mul = spec.idx_ops[1]
    acc: dict = {(EMPTY, u): 1}
    for (al, bl), c1 in dh.items():
        if not al:
            continue
        for (cl, dl), c2 in dv.items():
            accumulate_outer(spec, acc, {al + cl: mul[c1][c2]}, _shuffle_words(spec, bl, dl))
    return acc


def coproduct(e: Element) -> TensorElement:
    """Δ extended linearly to the whole algebra; Δ(1) = 1 ⊗ 1."""
    return linear(_coproduct_word, e)


def counit(e: Element) -> FieldElem:
    """Coefficient of the empty word."""
    return e.coeff(EMPTY)


def tensor_shuffle(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise shuffle on ordered pairs:
    (a ⊗ b) ⧢ (c ⊗ d) = (a ⧢ c) ⊗ (b ⧢ d), extended bilinearly."""
    spec = s.spec
    if t.spec is not spec:
        check_field(spec, t.spec)
    mul = spec.idx_ops[1]
    acc: dict = {}
    for (a, b), c1 in s.idx.items():
        row = mul[c1]
        for (c, d), c2 in t.idx.items():
            accumulate_outer(spec, acc, _shuffle_words(spec, a, c),
                             _shuffle_words(spec, b, d), row[c2])
    return _element(spec, acc)


def _antipode_word(spec: FieldSpec, u: Word) -> dict:
    if not u:
        return {EMPTY: 1}
    return _antipode_step(spec, u)


@memoized("antipode")
def _antipode_step(spec: FieldSpec, u: Word) -> dict:
    neg = spec.idx_ops[2]
    acc: dict = {u: neg[1]}
    for (l, r), c in _coproduct_word(spec, u).items():
        if l and r:
            accumulate_bilinear(spec, acc, _shuffle_words, _antipode_word(spec, l),
                                {r: 1}, neg[c])
    return acc


def antipode(e: Element) -> Element:
    """The antipode of the connected graded structure; weight-preserving."""
    return linear(_antipode_word, e)


# -- independent weight-recursive oracle (trivial characters) -----------------


@memoized("mzv_letter")
def _mzv_letter(spec: FieldSpec, n: int) -> dict:
    x1 = letter(spec, 1, spec.one)
    if n == 1:
        return {(EMPTY, (x1,)): 1, ((x1,), EMPTY): 1}
    xw1 = letter(spec, n - 1, spec.one)
    neg = spec.idx_ops[2]
    acc = tensor_shuffle(_element(spec, _mzv_letter(spec, 1)),
                         _element(spec, _mzv_letter(spec, n - 1))).idx
    for pair in ((x1, xw1), (xw1, x1)):
        accumulate(spec, acc, _mzv_word(spec, pair), neg[1])
    for j in range(1, n):
        dc = delta_coeff(1, n - 1, j, spec).idx
        if dc == 0:
            continue
        pair = (letter(spec, n - j, spec.one), letter(spec, j, spec.one))
        accumulate(spec, acc, _mzv_word(spec, pair), neg[dc])
    return acc


def _mzv_word(spec: FieldSpec, u: Word) -> dict:
    """The weight-recursive coproduct on a trivial-character word."""
    if not u:
        return {(EMPTY, EMPTY): 1}
    if len(u) == 1:
        return _mzv_letter(spec, u[0].n)
    return _mzv_step(spec, u)


@memoized("mzv_word")
def _mzv_step(spec: FieldSpec, u: Word) -> dict:
    head, v = u[0], u[1:]
    dh = _mzv_letter(spec, head.n)
    dv = _mzv_word(spec, v)
    mul = spec.idx_ops[1]
    acc: dict = {(EMPTY, u): 1}
    for (al, bl), c1 in dh.items():
        if not al:
            continue
        for (cl, dl), c2 in dv.items():
            left = triangle(Element.from_word(spec, al), Element.from_word(spec, cl))
            accumulate_outer(spec, acc, left.idx, _shuffle_words(spec, bl, dl), mul[c1][c2])
    return acc


def coproduct_mzv_recursive(n: int, spec: FieldSpec) -> TensorElement:
    """Δ(x_{n,1}) built by the weight recursion only.  Oracle use."""
    if n < 1:
        raise ValueError("weight must be >= 1")
    return _element(spec, _mzv_letter(spec, n))


def coproduct_mzv_word(u: Word, spec: FieldSpec) -> TensorElement:
    """Weight-recursive Δ on any trivial-character word.  Oracle use."""
    for lt in u:
        if lt.eps.idx != 1:
            raise ValueError("oracle coproduct needs trivial characters")
    return _element(spec, _mzv_word(spec, u))
