"""Words over the alphabet {x_{n,eps}} and the free F_q-spans they generate.

A letter carries a positive weight n and a unit character eps = g^j of F_q.
:class:`Letter` is an ``int`` whose value encodes (n, j, field) injectively,
so hashing, ``==`` and ordering of letters, and of the words built from
them, run in C; within one field the value order is the (n, j) order.
Each letter keeps ``n``, ``eps`` and its text as attributes, and
:func:`letter` hands out one shared instance per (field, n, eps).  A word is
a tuple of letters; the empty tuple is the empty word, written ``1``.
:class:`Element` is a finite F_q-linear combination (sparse map, no zero
coefficients stored) whose keys are words, or ordered pairs of words for
the tensor square that the coproduct lands in; ``TensorElement`` is an
alias.

Every sum of such combinations in the package goes through one accumulation
kernel: :func:`accumulate` (``acc += c·terms``, optionally with a word
prefixed to every key), :func:`accumulate_outer` (``acc += c·(left ⊗
right)``), and the :func:`linear` and :func:`bilinear` extensions of maps on
words built on them.

Text forms:

* word:     ``1`` or a run of ``x[n,j]`` with character ``g^j``
* element:  ``term ( " + " term )*`` where ``term = [coeff "*"] word`` and
  ``coeff = "g^" nat | residue`` (residues on prime fields only)
* tensor:   terms ``[coeff "*"] left ⊗ right`` (ASCII variant ``(x)``)

Formatting is canonical: terms are sorted by (weight, depth, letterwise
(n, char exponent)), coefficient 1 is dropped, output is stable across runs.
"""

from __future__ import annotations

import re
from typing import Iterator

from .ff import FieldElem, FieldSpec, check_field

# a letter's value is ((n << _CHAR_BITS | j) << _CODE_BITS) | spec.code:
# j <= q - 2 < 2**6 and every FieldSpec.code is below 2**15
_CHAR_BITS = 6
_CODE_BITS = 24


class Letter(int):
    """The letter x_{n,eps} with eps = g^j, as the int
    ``((n << 6 | j) << 24) | spec.code``.

    Letters over fields with equal keys are equal, letters over different
    fields never are, and within one field they order as (n, j) does.
    ``n`` and ``eps`` stay readable as attributes, and ``text`` is the
    canonical form ``x[n,j]``.  Use :func:`letter` for the shared instance.
    """

    def __new__(cls, n: int, eps: FieldElem) -> "Letter":
        spec = eps.spec
        j = spec.log(eps)
        lt = super().__new__(cls, (n << _CHAR_BITS | j) << _CODE_BITS | spec.code)
        lt.n = n
        lt.eps = eps
        lt.text = f"x[{n},{j}]"
        return lt

    def __repr__(self):
        return f"Letter(n={self.n}, eps={self.eps!r})"


Word = tuple  # tuple[Letter, ...]

EMPTY: Word = ()


def letter(spec: FieldSpec, n: int, eps: FieldElem) -> Letter:
    """Shared letter instance for (n, eps); n >= 1, eps a unit of ``spec``
    (or of a field with the same key).  The instances live in
    ``spec.letters``, which memo clearing keeps."""
    key = (n, eps.idx)
    lt = spec.letters.get(key)
    if lt is not None and lt.eps is eps:
        return lt
    if n < 1:
        raise ValueError("letter weight must be >= 1")
    if eps.idx == 0:
        raise ValueError("letter character must be a unit")
    check_field(spec, eps.spec)
    if lt is None:
        lt = spec.letters[key] = Letter(n, spec.elements[eps.idx])
    return lt


def word_weight(w: Word) -> int:
    return sum(lt.n for lt in w)


def word_key(spec: FieldSpec, w: Word):
    """Canonical sort key: (weight, depth, lexicographic on (n, exponent)).
    Within one field a letter's value orders as (n, exponent) does, so the
    word itself is the last entry."""
    return (word_weight(w), len(w), w)


def _clean(terms: dict) -> dict:
    for k in [k for k, v in terms.items() if v.idx == 0]:
        del terms[k]
    return terms


class Element:
    """A finite F_q-linear combination of words, or of ordered pairs of words
    (the tensor square, target of the coproduct).  Immutable by convention:
    nothing mutates ``terms`` after construction, so instances are safe to
    cache and share."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms: dict):
        self.spec = spec
        self.terms = terms

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Element":
        return cls(spec, {})

    @classmethod
    def one(cls, spec: FieldSpec) -> "Element":
        return cls(spec, {EMPTY: spec.one})

    @classmethod
    def from_word(cls, spec: FieldSpec, w: Word, coeff: FieldElem | None = None) -> "Element":
        c = spec.one if coeff is None else coeff
        if c.idx == 0:
            return cls(spec, {})
        return cls(spec, {w: c})

    @classmethod
    def from_pair(cls, spec: FieldSpec, left: Word, right: Word,
                  coeff: FieldElem | None = None) -> "Element":
        return cls.from_word(spec, (left, right), coeff)

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "Element":
        return cls(spec, _clean(dict(terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        check_field(self.spec, other.spec)
        return Element(self.spec, _clean(accumulate(dict(self.terms), other.terms)))

    def __sub__(self, other: "Element") -> "Element":
        check_field(self.spec, other.spec)
        out = accumulate(dict(self.terms), other.terms, -self.spec.one)
        return Element(self.spec, _clean(out))

    def __neg__(self) -> "Element":
        return Element(self.spec, {k: -c for k, c in self.terms.items()})

    def scale(self, c: FieldElem) -> "Element":
        if c.idx == 0:
            return Element(self.spec, {})
        if c.idx == 1:
            return self
        return Element(self.spec, {k: c * v for k, v in self.terms.items()})

    def coeff(self, key) -> FieldElem:
        """Coefficient of a word, or of a pair ``(left, right)`` of words."""
        return self.terms.get(key, self.spec.zero)

    def weights(self) -> set[int]:
        return {word_weight(w) for w in self.terms}

    def graded_part(self, w: int) -> "Element":
        return Element(self.spec, {k: v for k, v in self.terms.items() if word_weight(k) == w})

    def bidegrees(self) -> set[tuple[int, int]]:
        return {(word_weight(l), word_weight(r)) for l, r in self.terms}

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec.key == other.spec.key and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec.key, frozenset(self.terms.items())))

    def __repr__(self):
        key = next(iter(self.terms), EMPTY)
        # a word's entries are letters, a pair's entries are words
        if key and not isinstance(key[0], Letter):
            return format_tensor(self)
        return format_element(self)


# the coproduct's target is an Element keyed by pairs of words
TensorElement = Element


# -- the accumulation kernel -------------------------------------------------------


def accumulate(acc: dict, terms: dict, c: FieldElem | None = None, head: Word = EMPTY) -> dict:
    """In place, ``acc += c · head·terms`` and return ``acc``: ``head`` is
    prefixed to every key, ``c`` defaults to 1, and zero coefficients stay in
    ``acc`` until ``_clean``."""
    if c is not None and c.idx == 1:  # spare a field product per term
        c = None
    get = acc.get
    for k, v in terms.items():
        if head:
            k = head + k
        if c is not None:
            v = c * v
        prev = get(k)
        acc[k] = v if prev is None else prev + v
    return acc


def accumulate_outer(acc: dict, left: dict, right: dict, c: FieldElem | None = None) -> dict:
    """In place, ``acc += c · (left ⊗ right)``, one pair key ``(l, r)`` per
    pair of terms, and return ``acc``; ``c`` defaults to 1."""
    if c is not None and c.idx == 1:
        c = None
    get = acc.get
    for lk, lc in left.items():
        if c is not None:
            lc = c * lc
        for rk, rc in right.items():
            k = (lk, rk)
            v = lc * rc
            prev = get(k)
            acc[k] = v if prev is None else prev + v
    return acc


def linear(op, e: Element) -> Element:
    """The linear extension of ``op(spec, key) -> Element`` to ``e``.  On a
    single key with coefficient 1 this is ``op``'s own result, uncopied:
    Elements are immutable by convention."""
    spec = e.spec
    if len(e.terms) == 1:
        (k, c), = e.terms.items()
        if c.idx == 1:
            return op(spec, k)
    acc: dict = {}
    for k, c in e.terms.items():
        accumulate(acc, op(spec, k).terms, c)
    return Element(spec, _clean(acc))


def bilinear(op, a: Element, b: Element) -> Element:
    """The bilinear extension of ``op(spec, key_a, key_b)`` to ``a`` and ``b``.

    ``op`` returns an Element, or a pair ``(L, R)`` of Elements standing for
    ``L ⊗ R``, which is accumulated without being built.  On two single keys
    with coefficient 1, an Element from ``op`` is returned uncopied, as in
    :func:`linear`.
    """
    spec = a.spec
    if len(a.terms) == 1 and len(b.terms) == 1:
        (ka, ca), = a.terms.items()
        (kb, cb), = b.terms.items()
        if ca.idx == 1 and cb.idx == 1:
            got = op(spec, ka, kb)
            if type(got) is not tuple:
                return got
            return Element(spec, _clean(accumulate_outer({}, got[0].terms, got[1].terms)))
    acc: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            got = op(spec, ka, kb)
            if type(got) is tuple:
                accumulate_outer(acc, got[0].terms, got[1].terms, ca * cb)
            else:
                accumulate(acc, got.terms, ca * cb)
    return Element(spec, _clean(acc))


def concat(a: Element, b: Element) -> Element:
    """Bilinear extension of word concatenation; the empty word is the unit."""
    return bilinear(lambda spec, u, v: Element(spec, {u + v: spec.one}), a, b)


# -- enumeration ---------------------------------------------------------------


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All compositions of ``total`` into positive parts, lexicographically;
    the empty composition for total = 0."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def basis_words(w: int, spec: FieldSpec) -> list[Word]:
    """All words of weight exactly w, in canonical order ([1] for w = 0).

    Built in that order, depth by depth: the words of weight w and depth r
    are every letter (n, j), in (n, j) order, followed by each word of
    weight w - n and depth r - 1, and those tails are built once and shared.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    tails: dict = {(0, 0): [EMPTY]}

    def words(weight: int, depth: int) -> list[Word]:
        got = tails.get((weight, depth))
        if got is None:
            got = tails[(weight, depth)] = []
            for n in range(1, weight - depth + 2) if depth else ():
                rest = words(weight - n, depth - 1)
                got += [(letter(spec, n, u),) + t for u in spec.units for t in rest]
        return got

    return [u for depth in range(1 if w else 0, w + 1) for u in words(w, depth)]


# -- parsing and formatting -----------------------------------------------------

_WORD_RE = re.compile(r"x\[(\d+),(\d+)\]")


def parse_word(text: str, spec: FieldSpec) -> Word:
    """Parse ``1`` or a run of ``x[n,j]`` into a word; inverse of format_word."""
    text = text.strip()
    if text == "1":
        return EMPTY
    if not text:
        raise ValueError("empty word text; the empty word is written '1'")
    pos = 0
    letters = []
    while pos < len(text):
        m = _WORD_RE.match(text, pos)
        if m is None:
            raise ValueError(f"bad word syntax at {text[pos:]!r}")
        n, j = int(m.group(1)), int(m.group(2))
        if n < 1:
            raise ValueError("letter weight must be >= 1")
        if j > spec.q - 2:
            raise ValueError(
                f"character exponent {j} out of range for q = {spec.q}"
            )
        letters.append(letter(spec, n, spec.unit_from_exp(j)))
        pos = m.end()
    return tuple(letters)


def format_word(w: Word, spec: FieldSpec) -> str:
    """The text of ``w``, inverse of parse_word; each letter carries its own
    ``x[n,j]``, so ``spec`` is not consulted."""
    if not w:
        return "1"
    return "".join([lt.text for lt in w])


def parse_element(text: str, spec: FieldSpec) -> Element:
    text = text.strip()
    if text == "0":
        return Element.zero(spec)
    out: dict = {}
    for term in text.split(" + "):
        term = term.strip()
        if "*" in term:
            coeff_txt, word_txt = term.split("*", 1)
            c = spec.parse_elem(coeff_txt)
        else:
            c, word_txt = spec.one, term
        accumulate(out, {parse_word(word_txt, spec): c})
    return Element(spec, _clean(out))


def _coeff_prefix(c: FieldElem, spec: FieldSpec) -> str:
    return "" if c.idx == 1 else spec.format_elem(c) + "*"


def format_element(e: Element) -> str:
    if not e.terms:
        return "0"
    spec = e.spec
    parts = []
    for w in sorted(e.terms, key=lambda w: word_key(spec, w)):
        parts.append(_coeff_prefix(e.terms[w], spec) + format_word(w, spec))
    return " + ".join(parts)


def format_tensor(t: Element, ascii_tensor: bool = False) -> str:
    if not t.terms:
        return "0"
    spec = t.spec
    sym = " (x) " if ascii_tensor else " ⊗ "
    def key(pair):
        l, r = pair
        return (word_weight(l), word_key(spec, l), word_key(spec, r))
    parts = []
    for l, r in sorted(t.terms, key=key):
        c = t.terms[(l, r)]
        parts.append(_coeff_prefix(c, spec) + format_word(l, spec) + sym + format_word(r, spec))
    return " + ".join(parts)
