"""Words over the alphabet {x_{n,eps}} and the free F_q-spans they generate.

A letter carries a positive weight n and a unit character eps = g^j of F_q.
:class:`Letter` is an ``int`` whose value encodes (n, j, field) injectively,
so hashing, ``==`` and ordering of letters, and of the words built from
them, run in C; within one field the value order is the (n, j) order.
Each letter keeps ``n``, ``eps`` and its text as attributes, and
:func:`letter` hands out one shared instance per (field, n, eps).  A word is
a tuple of letters; the empty tuple is the empty word, written ``1``.
:class:`Element` is a finite F_q-linear combination whose keys are words,
or ordered pairs of words for the tensor square that the coproduct lands
in; ``TensorElement`` is an alias.  Its coefficients are field indices:
``Element.idx`` maps each key to the index of its coefficient in
``spec.elements``, never 0, the way ``Laurent.idx`` holds a series window.
``FieldElem`` values appear only at the boundary: the constructor and
``from_terms`` take them, ``from_word``, ``from_pair`` and ``scale`` take
one, ``coeff`` returns one, and ``.terms`` is a read-only ``FieldElem``
view built on each read.

Every sum of such combinations in the package goes through one accumulation
kernel on index maps and the int tables ``spec.idx_ops``: :func:`accumulate`
(``acc += c·terms``, optionally with a word prefixed to every key),
:func:`accumulate_outer` (``acc += c·(left ⊗ right)``), and the
:func:`linear` and :func:`bilinear` extensions of maps on words built on
them.  The kernel deletes a key whose sum reaches zero, so its results hold
no zero coefficient without a cleaning pass.

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

from . import ff
from .ff import BudgetExceededError, FieldElem, FieldSpec, check_field

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


class Element:
    """A finite F_q-linear combination of words, or of ordered pairs of words
    (the tensor square, target of the coproduct).

    ``idx`` maps each key to the field index (see :attr:`FieldSpec.idx_ops`)
    of its coefficient, never 0.  The constructor and :meth:`from_terms`
    take :class:`FieldElem` coefficients, and :attr:`terms` reads them back
    as such; arithmetic stays on indices.  Immutable by convention: nothing
    mutates ``idx`` after construction, so instances are safe to cache and
    share.
    """

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, terms: dict):
        idx = {}
        for k, c in terms.items():
            check_field(spec, c.spec)
            if c.idx:
                idx[k] = c.idx
        self.spec = spec
        self.idx = idx

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Element":
        return _element(spec, {})

    @classmethod
    def one(cls, spec: FieldSpec) -> "Element":
        return _element(spec, {EMPTY: 1})

    @classmethod
    def from_word(cls, spec: FieldSpec, w: Word, coeff: FieldElem | None = None) -> "Element":
        if coeff is None:
            return _element(spec, {w: 1})
        return cls(spec, {w: coeff})

    @classmethod
    def from_pair(cls, spec: FieldSpec, left: Word, right: Word,
                  coeff: FieldElem | None = None) -> "Element":
        return cls.from_word(spec, (left, right), coeff)

    @classmethod
    def from_terms(cls, spec: FieldSpec, terms: dict) -> "Element":
        """The combination of ``terms``, a map from keys to field elements;
        zero coefficients are left out."""
        return cls(spec, terms)

    @property
    def terms(self) -> dict:
        """A fresh map from each key to its coefficient as a field element."""
        elements = self.spec.elements
        return {k: elements[c] for k, c in self.idx.items()}

    def is_zero(self) -> bool:
        return not self.idx

    def __add__(self, other: "Element") -> "Element":
        check_field(self.spec, other.spec)
        return _element(self.spec, accumulate(self.spec, dict(self.idx), other.idx))

    def __sub__(self, other: "Element") -> "Element":
        spec = self.spec
        check_field(spec, other.spec)
        return _element(spec, accumulate(spec, dict(self.idx), other.idx, spec.idx_ops[2][1]))

    def __neg__(self) -> "Element":
        neg = self.spec.idx_ops[2]
        return _element(self.spec, {k: neg[c] for k, c in self.idx.items()})

    def scale(self, c: FieldElem) -> "Element":
        check_field(self.spec, c.spec)
        if c.idx == 0:
            return _element(self.spec, {})
        if c.idx == 1:
            return self
        row = self.spec.idx_ops[1][c.idx]
        return _element(self.spec, {k: row[v] for k, v in self.idx.items()})

    def coeff(self, key) -> FieldElem:
        """Coefficient of a word, or of a pair ``(left, right)`` of words."""
        return self.spec.elements[self.idx.get(key, 0)]

    def weights(self) -> set[int]:
        return {word_weight(w) for w in self.idx}

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec.key == other.spec.key and self.idx == other.idx

    def __hash__(self):
        return hash((self.spec.key, frozenset(self.idx.items())))

    def __repr__(self):
        key = next(iter(self.idx), EMPTY)
        # a word's entries are letters, a pair's entries are words
        if key and not isinstance(key[0], Letter):
            return format_tensor(self)
        return format_element(self)


# the coproduct's target is an Element keyed by pairs of words
TensorElement = Element


def _element(spec: FieldSpec, idx: dict) -> Element:
    """An :class:`Element` from a map of keys to nonzero field indices."""
    e = object.__new__(Element)
    e.spec = spec
    e.idx = idx
    return e


# -- the accumulation kernel -------------------------------------------------------
#
# Coefficients are field indices: ``terms`` and ``acc`` map keys to nonzero
# indices, ``c`` is an index.  A key whose sum reaches zero is deleted, so
# ``acc`` stays free of zeros.


def accumulate(spec: FieldSpec, acc: dict, terms: dict, c: int = 1, head: Word = EMPTY) -> dict:
    """In place, ``acc += c · head·terms`` and return ``acc``: ``head`` is
    prefixed to every key and ``c`` defaults to 1."""
    if not c:
        return acc
    add, mul, _ = spec.idx_ops
    row = mul[c] if c != 1 else None
    get = acc.get
    for k, v in terms.items():
        if head:
            k = head + k
        if row is not None:
            v = row[v]
        prev = get(k)
        if prev is None:
            acc[k] = v
        else:
            v = add[prev][v]
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


def accumulate_outer(spec: FieldSpec, acc: dict, left: dict, right: dict, c: int = 1) -> dict:
    """In place, ``acc += c · (left ⊗ right)``, one pair key ``(l, r)`` per
    pair of terms, and return ``acc``; ``c`` defaults to 1."""
    if not c:
        return acc
    add, mul, _ = spec.idx_ops
    get = acc.get
    for lk, lc in left.items():
        row = mul[mul[c][lc]]
        for rk, rc in right.items():
            k = (lk, rk)
            v = row[rc]
            prev = get(k)
            if prev is None:
                acc[k] = v
            else:
                v = add[prev][v]
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    return acc


def linear(op, e: Element) -> Element:
    """The linear extension of ``op(spec, key) -> Element`` to ``e``.  On a
    single key with coefficient 1 this is ``op``'s own result, uncopied:
    Elements are immutable by convention."""
    spec = e.spec
    if len(e.idx) == 1:
        (k, c), = e.idx.items()
        if c == 1:
            return op(spec, k)
    acc: dict = {}
    for k, c in e.idx.items():
        accumulate(spec, acc, op(spec, k).idx, c)
    return _element(spec, acc)


def bilinear(op, a: Element, b: Element) -> Element:
    """The bilinear extension of ``op(spec, key_a, key_b) -> Element`` to
    ``a`` and ``b``.  On two single keys with coefficient 1 this is ``op``'s
    own result, uncopied, as in :func:`linear`."""
    spec = a.spec
    if b.spec is not spec:
        check_field(spec, b.spec)
    if len(a.idx) == 1 and len(b.idx) == 1:
        (ka, ca), = a.idx.items()
        (kb, cb), = b.idx.items()
        if ca == 1 and cb == 1:
            return op(spec, ka, kb)
    mul = spec.idx_ops[1]
    acc: dict = {}
    for ka, ca in a.idx.items():
        row = mul[ca]
        for kb, cb in b.idx.items():
            accumulate(spec, acc, op(spec, ka, kb).idx, row[cb])
    return _element(spec, acc)


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


def check_basis_budget(w: int, spec: FieldSpec) -> None:
    """Refuse a weight w whose (q - 1) q^(w - 1) words exceed ``ff.BUDGET``,
    read when it runs."""
    q = spec.q
    # q >= 2, so the power already exceeds the budget past its bit length
    if w > 0 and (q - 1) * q ** min(w - 1, ff.BUDGET.bit_length()) > ff.BUDGET:
        raise BudgetExceededError(
            f"(q - 1) q^(w - 1) = {q - 1}*{q}^{w - 1} exceeds budget {ff.BUDGET}")


def iter_basis_words(w: int, spec: FieldSpec) -> Iterator[Word]:
    """The words of weight exactly w, one at a time in canonical order
    ([1] for w = 0); a weight with more words than ``ff.BUDGET`` raises
    before the first is yielded.

    Built in that order, depth by depth: the words of weight w and depth r
    are every letter (n, j), in (n, j) order, followed by each word of
    weight w - n and depth r - 1.  Those tails, of lower weight, are built
    once and shared, and so is each weight's row of letters; the words of
    weight w themselves are yielded and not kept.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    check_basis_budget(w, spec)
    rows: dict = {}
    tails: dict = {(0, 0): [EMPTY]}

    def extend(weight: int, depth: int) -> Iterator[Word]:
        for n in range(1, weight - depth + 2) if depth else ():
            rest = tail(weight - n, depth - 1)
            row = rows.get(n)
            if row is None:
                row = rows[n] = [letter(spec, n, u) for u in spec.units]
            for lt in row:
                for t in rest:
                    yield (lt,) + t

    def tail(weight: int, depth: int) -> list[Word]:
        got = tails.get((weight, depth))
        if got is None:
            got = tails[(weight, depth)] = list(extend(weight, depth))
        return got

    if w == 0:
        yield EMPTY
    for depth in range(1, w + 1):
        yield from extend(w, depth)


def basis_words(w: int, spec: FieldSpec) -> list[Word]:
    """The list of :func:`iter_basis_words`: all words of weight exactly w,
    in canonical order; a weight with more words than ``ff.BUDGET`` raises
    before any is built."""
    return list(iter_basis_words(w, spec))


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
        accumulate(spec, out, {parse_word(word_txt, spec): 1}, c.idx)
    return _element(spec, out)


def _coeff_prefix(c: int, spec: FieldSpec) -> str:
    return "" if c == 1 else spec.format_elem(spec.elements[c]) + "*"


def format_element(e: Element) -> str:
    if not e.idx:
        return "0"
    spec = e.spec
    parts = []
    for w in sorted(e.idx, key=lambda w: word_key(spec, w)):
        parts.append(_coeff_prefix(e.idx[w], spec) + format_word(w, spec))
    return " + ".join(parts)


def format_tensor(t: Element, ascii_tensor: bool = False) -> str:
    if not t.idx:
        return "0"
    spec = t.spec
    sym = " (x) " if ascii_tensor else " ⊗ "
    def key(pair):
        l, r = pair
        return (word_weight(l), word_key(spec, l), word_key(spec, r))
    parts = []
    for l, r in sorted(t.idx, key=key):
        c = t.idx[(l, r)]
        parts.append(_coeff_prefix(c, spec) + format_word(l, spec) + sym + format_word(r, spec))
    return " + ".join(parts)
