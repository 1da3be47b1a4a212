"""Words over the alphabet {x_{n,eps}} and the free F_q-spans they generate.

A letter carries a positive weight n and a unit character eps of F_q.  A word
is a tuple of letters; the empty tuple is the empty word, written ``1``.
:class:`Element` is a finite F_q-linear combination of words (sparse map, no
zero coefficients stored); :class:`TensorElement` is the analogue on ordered
pairs of words and is the target of the coproduct.

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
from typing import Iterable, Iterator, NamedTuple

from .ff import FieldElem, FieldSpec


class Letter(NamedTuple):
    n: int
    eps: FieldElem


Word = tuple  # tuple[Letter, ...]

EMPTY: Word = ()


def letter(spec: FieldSpec, n: int, eps: FieldElem) -> Letter:
    """Shared letter instance for (n, eps); n >= 1, eps a unit."""
    cache = spec.memo("letters")
    key = (n, eps.idx)
    lt = cache.get(key)
    if lt is None:
        if n < 1:
            raise ValueError("letter weight must be >= 1")
        if eps.idx == 0:
            raise ValueError("letter character must be a unit")
        lt = cache[key] = Letter(n, eps)
    return lt


def word_weight(w: Word) -> int:
    return sum(lt.n for lt in w)


def word_key(spec: FieldSpec, w: Word):
    """Canonical sort key: (weight, depth, lexicographic on (n, exponent))."""
    return (word_weight(w), len(w), tuple((lt.n, spec.log(lt.eps)) for lt in w))


def _clean(terms: dict) -> dict:
    for k in [k for k, v in terms.items() if v.idx == 0]:
        del terms[k]
    return terms


class Element:
    """A finite F_q-linear combination of words.  Immutable by convention:
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
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "Element":
        return cls(spec, _clean(dict(terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for w, c in other.terms.items():
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        return Element(self.spec, _clean(out))

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for w, c in other.terms.items():
            prev = out.get(w)
            out[w] = -c if prev is None else prev - c
        return Element(self.spec, _clean(out))

    def __neg__(self) -> "Element":
        return Element(self.spec, {w: -c for w, c in self.terms.items()})

    def scale(self, c: FieldElem) -> "Element":
        if c.idx == 0:
            return Element(self.spec, {})
        if c.idx == 1:
            return self
        return Element(self.spec, {w: c * v for w, v in self.terms.items()})

    def coeff(self, w: Word) -> FieldElem:
        return self.terms.get(w, self.spec.zero)

    def weights(self) -> set[int]:
        return {word_weight(w) for w in self.terms}

    def graded_part(self, w: int) -> "Element":
        return Element(self.spec, {k: v for k, v in self.terms.items() if word_weight(k) == w})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec.key == other.spec.key and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec.key, frozenset(self.terms.items())))

    def __repr__(self):
        return format_element(self)


class TensorElement:
    """A finite F_q-linear combination of ordered word pairs."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms: dict):
        self.spec = spec
        self.terms = terms

    @classmethod
    def zero(cls, spec: FieldSpec) -> "TensorElement":
        return cls(spec, {})

    @classmethod
    def from_pair(cls, spec: FieldSpec, left: Word, right: Word,
                  coeff: FieldElem | None = None) -> "TensorElement":
        c = spec.one if coeff is None else coeff
        if c.idx == 0:
            return cls(spec, {})
        return cls(spec, {(left, right): c})

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "TensorElement":
        return cls(spec, _clean(dict(terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return TensorElement(self.spec, _clean(out))

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = -c if prev is None else prev - c
        return TensorElement(self.spec, _clean(out))

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.spec, {k: -c for k, c in self.terms.items()})

    def scale(self, c: FieldElem) -> "TensorElement":
        if c.idx == 0:
            return TensorElement(self.spec, {})
        if c.idx == 1:
            return self
        return TensorElement(self.spec, {k: c * v for k, v in self.terms.items()})

    def coeff(self, left: Word, right: Word) -> FieldElem:
        return self.terms.get((left, right), self.spec.zero)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {(word_weight(l), word_weight(r)) for l, r in self.terms}

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.spec.key == other.spec.key and self.terms == other.terms

    def __repr__(self):
        return format_tensor(self)


# -- products that live at the word level ------------------------------------


def concat(a: Element, b: Element) -> Element:
    """Bilinear extension of word concatenation; the empty word is the unit."""
    out: dict = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            c = ca * cb
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
    return Element(a.spec, _clean(out))


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


def compositions_with_parts(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions_with_parts(total - first, parts - 1):
            yield (first,) + rest


def basis_words(w: int, spec: FieldSpec) -> list[Word]:
    """All words of weight exactly w, in canonical order ([1] for w = 0)."""
    if w < 0:
        raise ValueError("weight must be >= 0")
    if w == 0:
        return [EMPTY]
    out: list[Word] = []
    units = [spec.unit_from_exp(j) for j in range(spec.q - 1)]
    for depth in range(1, w + 1):
        for comp in compositions_with_parts(w, depth):
            stack: list[Word] = [EMPTY]
            for n in comp:
                stack = [word + (letter(spec, n, u),) for word in stack for u in units]
            out.extend(stack)
    out.sort(key=lambda x: word_key(spec, x))
    return out


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
    if not w:
        return "1"
    return "".join(f"x[{lt.n},{spec.log(lt.eps)}]" for lt in w)


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
        w = parse_word(word_txt, spec)
        prev = out.get(w)
        out[w] = c if prev is None else prev + c
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


def format_tensor(t: TensorElement, ascii_tensor: bool = False) -> str:
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
