"""Exact arithmetic in small finite fields F_q with q = p^k.

Fields are described by a :class:`FieldSpec`, built once via :func:`field_make`
and then treated as immutable.  All q elements are created up front and every
arithmetic operation reads a table and returns one of those shared values,
so elements can be used freely as dictionary keys in the word-algebra layers.

An element's coordinates ``(c_0, ..., c_{k-1})`` are those of
``sum c_j t^j`` modulo the field's modulus, and its index is
``sum c_j p^j``.  The arithmetic tables are the int tables
``FieldSpec.idx_ops`` on these indices.  Addition and negation are
coordinate arithmetic mod p (XOR and the identity when p = 2).
Multiplication goes through the exp/log tables of the primitive element
``g``.  Multiplying by an element c is an F_p-linear map on coordinates,
so it is an index table built from the images c t^j of the basis; walking
each candidate's powers on its table finds ``g`` and its exp table in O(q)
steps, and ``a * b = g^(log a + log b)``.  No polynomial is multiplied.
These are the only arithmetic tables: ``FieldElem`` operations look the
result's index up in them and return the shared element with that index,
and a unit's inverse and powers come from its discrete log and the tuple
``units`` of the powers of ``g``.

Units are printed in exponent form ``g^j`` where ``g`` is a fixed primitive
element chosen deterministically (the first element, in coordinate order,
whose multiplicative order is q - 1).  Zero prints as ``0``.
:meth:`FieldSpec.parse_elem` reads these back, ``1``, and residues such as
``3`` on prime fields, in ASCII digits with no sign, underscore or space.

The per-field memo policy lives here too: :func:`memoized` caches
``fn(spec, *args)`` by ``args`` in a registry on the spec that no other
module touches, and :meth:`FieldSpec.clear_memos` empties it.
:func:`check_field` is the one guard against mixing two fields' values.
The enumeration cap ``BUDGET`` and :class:`BudgetExceededError`, which
``zeta``'s enumerations and :func:`amzv.words.basis_words` raise, are
defined here so that no caller needs ``zeta`` to read or catch them.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import defaultdict

MAX_Q = 64

# g^j or a numeral, in ASCII digits (a str pattern's \d takes any Unicode digit)
_LITERAL_RE = re.compile(r"g\^([0-9]+)|([0-9]+)")

# Fixed irreducible moduli (ascending coefficients, monic) used when the
# caller does not supply one.  Keeping a single table makes the element
# encoding, and hence every formatted result, reproducible across runs.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _coordinate_tables(p: int, k: int) -> tuple[tuple, tuple]:
    """``(add, neg)`` on the indices ``sum c_i p^i`` of coordinate vectors
    ``(c_0, ..., c_{k-1})``: coordinate-wise sum and negation mod p, which
    for p = 2 are XOR and the identity.  Built one coordinate at a time: the
    index ``a + size * t`` puts coordinate ``t`` above the ``size`` indices
    already tabled, so its row is old row ``a`` shifted by ``size * c`` for
    c = 0, ..., p - 1, one block each, rotated left by ``t`` blocks.  The
    rows of F_p are thus the rotations of ``range(p)``."""
    add: tuple = ((0,),)
    neg: tuple = (0,)
    size = 1
    for _ in range(k):
        flat = [tuple(x + size * c for c in range(p) for x in row) for row in add]
        add = tuple(f[t * size:] + f[:t * size] for t in range(p) for f in flat)
        neg = tuple(x + size * (-t % p) for t in range(p) for x in neg)
        size *= p
    return add, neg


def _linear_row(images, add: tuple, p: int) -> list[int]:
    """The index table of the F_p-linear map that sends the basis vector
    e_j (index p^j) to the index ``images[j]``: one coordinate at a time,
    the index ``a + size * c`` maps to ``row[a] + c * images[j]``."""
    row = [0]
    for y in images:
        mults = [0]
        for _ in range(p - 1):
            mults.append(add[mults[-1]][y])
        row = [add[x][m] for m in mults for x in row]
    return row


def check_field(spec: FieldSpec, other: FieldSpec) -> None:
    """Raise ``ValueError`` unless ``other`` is ``spec``'s field (the same
    spec, or one with an equal key)."""
    if other is not spec and other.key != spec.key:
        raise ValueError(f"field mismatch: F_{spec.q} vs F_{other.q}")


class FieldElem:
    """A single element of F_q in polynomial-basis coordinates.

    Value type: equality and hashing go by (field, coordinates).  Instances
    are created only by :class:`FieldSpec`; arithmetic returns the shared
    instance for the resulting value.
    """

    __slots__ = ("coeffs", "spec", "idx", "_h")

    def __init__(self, coeffs: tuple[int, ...], spec: "FieldSpec", idx: int):
        self.coeffs = coeffs
        self.spec = spec
        self.idx = idx
        self._h = hash((spec.key, coeffs))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.spec.key == other.spec.key and self.coeffs == other.coeffs

    def __hash__(self):
        return self._h

    def __add__(self, other: "FieldElem") -> "FieldElem":
        check_field(self.spec, other.spec)
        return self.spec.elements[self.spec.idx_ops[0][self.idx][other.idx]]

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        spec = self.spec
        check_field(spec, other.spec)
        add, _, neg = spec.idx_ops
        return spec.elements[add[self.idx][neg[other.idx]]]

    def __neg__(self) -> "FieldElem":
        return self.spec.elements[self.spec.idx_ops[2][self.idx]]

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        check_field(self.spec, other.spec)
        return self.spec.elements[self.spec.idx_ops[1][self.idx][other.idx]]

    def __pow__(self, n: int) -> "FieldElem":
        if n == 0:
            return self.spec.one
        if self.idx == 0:
            if n < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return self
        spec = self.spec
        return spec.units[spec._log[self.idx] * n % (spec.q - 1)]

    def inverse(self) -> "FieldElem":
        if self.idx == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        spec = self.spec
        return spec.units[-spec._log[self.idx] % (spec.q - 1)]

    def is_zero(self) -> bool:
        return self.idx == 0

    def is_one(self) -> bool:
        return self.idx == 1

    def __repr__(self):
        return self.spec.format_elem(self)


class FieldSpec:
    """All tables for one field F_q.  Immutable after construction.

    ``idx_ops`` is ``(add, mul, neg)`` on element indices: ``add[a][b]`` is
    the index of ``elements[a] + elements[b]``, likewise ``mul``; ``neg[a]``
    is that of ``-elements[a]``.  These int tables are the only arithmetic
    tables, and like ``letters`` they outlive :meth:`clear_memos`.
    ``FieldElem`` arithmetic looks its result's index up there and returns
    the shared element ``elements[i]``, and ``units`` is the tuple g^0, ...,
    g^(q-2) of every unit in exponent order.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.key = (p, k, modulus)
        q = self.q
        # ``key`` as one int: p, then k < 8, then the modulus's low k
        # coefficients read in base p (below q <= MAX_Q = 2**6).  Equal keys
        # give equal codes, different keys different ones, all below 2**15.
        self.code = (p << 3 | k) << 6 | self._index(modulus[:k])

        self.elements: tuple[FieldElem, ...] = tuple(
            FieldElem(c[::-1], self, v)
            for v, c in enumerate(itertools.product(range(p), repeat=k))
        )
        self.zero = self.elements[0]
        self.one = self.elements[1]

        # the arithmetic tables, on element indices: add and neg by
        # coordinate arithmetic, mul through g's exp/log tables
        add, neg = _coordinate_tables(p, k)
        exp = self._generator_powers(add)
        n = q - 1
        log: list = [None] * q
        for j, v in enumerate(exp):
            log[v] = j
        # a * b = g^(log a + log b): the row of g^i is exp rotated by i, read
        # at the logs; row and column 0 are zero
        exp2 = exp + exp
        logs = log[1:]
        mul = ((0,) * q, *((0, *map(exp2[i:i + n].__getitem__, logs)) for i in logs))
        self.idx_ops: tuple = (add, mul, neg)

        self.units = tuple(map(self.elements.__getitem__, exp))
        self._log = tuple(log)
        self.g = self.units[1 % n]

        # the shared word letters, filled on demand by ``amzv.words.letter``,
        # and the packed series product's tables, filled by ``amzv.zeta``;
        # neither is a memo, so both outlive ``clear_memos``
        self.letters: dict = {}
        self.packings: dict = {}
        # memo name -> {args: result}, filled by ``memoized`` functions
        self._memos: defaultdict[str, dict] = defaultdict(dict)

    # -- construction helpers -------------------------------------------------

    def _index(self, coeffs: tuple[int, ...]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _generator_powers(self, add: tuple) -> list[int]:
        """The indices of g^0, ..., g^(q-2), where g is the first element in
        index order whose multiplicative order is q - 1.

        Multiplication by an element c is F_p-linear, so it is the index
        table :func:`_linear_row` builds from the images c t^j, and each
        candidate's powers are walked on that row until they return to 1.
        For k > 1 the images come from the row of t, whose image of t^(k-1)
        is t^k reduced by the modulus.  A candidate inside a subgroup
        already walked has order dividing that subgroup's, below q - 1, so it
        is skipped: the walked subgroups are distinct, and the walk steps
        number at most the sum of the divisors of q - 1.

        This walk is also the field's one irreducibility check.  Modulo a
        reducible modulus the units number fewer than q - 1, so no candidate
        reaches order q - 1, and the walk meets a zero divisor, whose powers
        never return to 1: that raises ``ValueError``.
        """
        p, k, n = self.p, self.k, self.q - 1
        if n == 1:  # F_2, whose one unit is 1
            return [1]
        if k > 1:
            # t^k = -(m_0 + m_1 t + ... + m_{k-1} t^(k-1))
            top = self._index(tuple(-c % p for c in self.modulus[:k]))
            times_t = _linear_row([p**j for j in range(1, k)] + [top], add, p)
        seen = bytearray(self.q)
        seen[1] = 1  # the subgroup {1} needs no walk
        for c in range(2, self.q):
            if seen[c]:
                continue
            images = [c]
            for _ in range(k - 1):
                images.append(times_t[images[-1]])
            row = _linear_row(images, add, p)
            powers, x = [1], c
            while x != 1 and len(powers) < n:
                powers.append(x)
                x = row[x]
            if x != 1:
                # a zero divisor: its powers never return to 1
                raise ValueError("modulus is reducible")
            if len(powers) == n:
                return powers
            for v in powers:
                seen[v] = 1
        raise AssertionError("no generator found")

    # -- element access and I/O ----------------------------------------------

    def residue(self, m: int) -> FieldElem:
        """The image of the integer m in the prime subfield."""
        return self.elements[m % self.p]

    def unit_from_exp(self, j: int) -> FieldElem:
        return self.units[j % (self.q - 1)]

    def log(self, e: FieldElem) -> int:
        """Discrete log base g of a unit."""
        if e.idx == 0:
            raise ZeroDivisionError("0 is not a unit")
        return self._log[e.idx]

    def format_elem(self, e: FieldElem) -> str:
        if e.idx == 0:
            return "0"
        return f"g^{self._log[e.idx]}"

    def parse_elem(self, text: str) -> FieldElem:
        """Read a field literal exactly as given: ``g^j``, or a numeral, which
        is a residue on prime fields and ``0`` or ``1`` on every field."""
        m = _LITERAL_RE.fullmatch(text)
        if m and m[1]:
            return self.unit_from_exp(int(m[1]))
        if m and (self.k == 1 or m[2] in ("0", "1")):
            return self.residue(int(m[2]))
        raise ValueError(f"bad field literal {text!r}")

    def clear_memos(self) -> None:
        """Drop every result cached by a :func:`memoized` function."""
        self._memos.clear()

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


# the most words of one weight, or monic polynomials or coefficient vectors
# of one degree, that one enumeration may visit; read at call time, so it
# is in no memo key
BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more than ``BUDGET`` items."""


def memoized(name: str):
    """Cache ``fn(spec, *args)`` in ``spec``'s memo ``name``, keyed by the
    hashable ``args``.  Results are never ``None``, and the first result
    stored for a key is the one every call returns.  Every result is a pure
    value but one: the table of ``zeta._partial_sums``, which walks extend
    one partial sum at a time.  Entry i of it is one fixed value, and a walk
    stores it at index i only, from entries it read by index, so concurrent
    writers, here as in every memo, only race on identical data.  Callers
    answer trivial inputs themselves, so those take no entry."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(spec: FieldSpec, *args):
            memo = spec._memos[name]
            out = memo.get(args)
            if out is None:
                out = memo.setdefault(args, fn(spec, *args))
            return out
        return cached
    return decorate


def field_make(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Build the spec for F_{p^k}.

    The modulus (monic of degree k, irreducible over F_p, ascending
    coefficients) defaults to a fixed table entry; :class:`FieldSpec`
    rejects a reducible one.  Every monic linear modulus gives F_p itself,
    so for k = 1 a given one is checked and then left out of the key.  The
    primitive element g is the smallest element in coordinate order that
    generates the unit group.
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    q = p**k
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported maximum {MAX_Q}")
    if modulus is not None:
        mod = _poly_trim(tuple(c % p for c in modulus))
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
    if k == 1:
        return FieldSpec(p, 1, ())
    if modulus is None:
        try:
            mod = DEFAULT_MODULI[(p, k)]
        except KeyError:
            raise ValueError(f"no default modulus available for ({p}, {k})") from None
    return FieldSpec(p, k, mod)


def field_from_q(q: int) -> FieldSpec:
    """Build the spec for F_q from the prime power q, using default moduli."""
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return field_make(p, k)
