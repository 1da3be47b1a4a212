"""Exact arithmetic in small finite fields F_q with q = p^k.

Fields are described by a :class:`FieldSpec`, built once via :func:`field_make`
and then treated as immutable.  All q elements are created up front and every
arithmetic operation is a table lookup returning one of those shared values,
so elements can be used freely as dictionary keys in the word-algebra layers.

An element's coordinates ``(c_0, ..., c_{k-1})`` are those of
``sum c_j t^j`` modulo the field's modulus, and its index is
``sum c_j p^j``.  The arithmetic tables are the int tables
``FieldSpec.idx_ops`` on these indices.  Addition and negation are
coordinate arithmetic mod p (XOR and the identity when p = 2).
Multiplication goes through the exp/log tables of the primitive element
``g``: walking the powers of each candidate by polynomial products finds
``g`` and its exp table in O(q) products, and ``a * b = g^(log a + log b)``.
These are the only arithmetic tables: ``FieldElem`` operations look the
result's index up in them and return the shared element with that index,
and a unit's inverse and powers come from its discrete log and the tuple
``units`` of the powers of ``g``.

Units are printed in exponent form ``g^j`` where ``g`` is a fixed primitive
element chosen deterministically (the first element, in coordinate order,
whose multiplicative order is q - 1).  Zero prints as ``0``.

``FieldSpec.packings`` holds the tables of the packed series product: they
put a series of indices into one Python int, a byte sub-slot per
coordinate, and read a product's sub-slots back as indices.

The per-field memo policy lives here too: :func:`memoized` caches
``fn(spec, *args)`` by ``args`` in a registry on the spec that no other
module touches, and :meth:`FieldSpec.clear_memos` empties it.
:func:`check_field` is the one guard against mixing two fields' values.
:class:`BudgetExceededError`, which ``zeta``'s enumerations raise, is
defined here so that a caller can catch it without loading ``zeta``.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections import defaultdict

MAX_Q = 64

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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m is monic; ordinary long division, remainder only.
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - lead * m[i]) % p
        a.pop()
    return _poly_trim(tuple(x % p for x in a))


def _coordinate_tables(p: int, k: int) -> tuple[tuple, tuple]:
    """``(add, neg)`` on the indices ``sum c_i p^i`` of coordinate vectors
    ``(c_0, ..., c_{k-1})``: coordinate-wise sum and negation mod p, which
    for p = 2 are XOR and the identity.  Built one coordinate at a time: the
    index ``a + size * t`` puts coordinate ``t`` above the ``size`` indices
    already tabled."""
    add: tuple = ((0,),)
    neg: tuple = (0,)
    size = 1
    for _ in range(k):
        add = tuple(
            tuple(x + size * ((t + u) % p) for u in range(p) for x in add[a])
            for t in range(p) for a in range(size)
        )
        neg = tuple(x + size * (-t % p) for t in range(p) for x in neg)
        size *= p
    return add, neg


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
    g^(q-2) of every unit in exponent order.  ``packings`` holds the tables
    of the packed series product (see :class:`_Packings`), built on first
    use and also kept across :meth:`clear_memos`.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.key = (p, k, modulus)
        q = self.q
        # ``key`` as one int: p, then k < 8, then the modulus's low k
        # coefficients read in base p (m < q <= MAX_Q = 2**6).  Equal keys
        # give equal codes, different keys different ones, all below 2**15.
        m = 0
        for c in reversed(modulus[:k]):
            m = m * p + c
        self.code = (p << 3 | k) << 6 | m

        self.elements: tuple[FieldElem, ...] = tuple(
            FieldElem(self._digits(v), self, v) for v in range(q)
        )
        self.zero = self.elements[0]
        self.one = self.elements[1]

        # the arithmetic tables, on element indices: add and neg by
        # coordinate arithmetic, mul through g's exp/log tables
        add, neg = _coordinate_tables(p, k)
        # F_p itself is F_p[t]/(t): its key has an empty modulus
        exp = self._generator_powers(modulus or (0, 1))
        n = q - 1
        log: list = [None] * q
        for j, v in enumerate(exp):
            log[v] = j
        # a * b = g^(log a + log b); row and column 0 are zero
        exp2 = exp + exp
        logs = log[1:]
        mul = ((0,) * q, *((0, *[exp2[i + j] for j in logs]) for i in logs))
        self.idx_ops: tuple = (add, mul, neg)

        self.units = tuple(map(self.elements.__getitem__, exp))
        self._log = tuple(log)
        self.g = self.units[1 % n]

        # the packed series product's tables, built on first use
        self.packings = _Packings(self)

        # the shared word letters, filled on demand by ``amzv.words.letter``
        self.letters: dict = {}
        # memo name -> {args: result}, filled by ``memoized`` functions
        self._memos: defaultdict[str, dict] = defaultdict(dict)

    # -- construction helpers -------------------------------------------------

    def _digits(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _index(self, coeffs: tuple[int, ...]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _generator_powers(self, modulus: tuple[int, ...]) -> list[int]:
        """The indices of g^0, ..., g^(q-2), where g is the first element in
        index order whose multiplicative order is q - 1.

        Each candidate's powers are walked by polynomial products modulo
        ``modulus`` until they return to 1.  A candidate inside a subgroup
        already walked has order dividing that subgroup's, below q - 1, so it
        is skipped: the walked subgroups are distinct, and the products number
        at most the sum of the divisors of q - 1.

        This walk is also the field's one irreducibility check.  Modulo a
        reducible modulus the units number fewer than q - 1, so no candidate
        reaches order q - 1, and the walk meets a zero divisor, whose powers
        never return to 1: that raises ``ValueError``.
        """
        p, n = self.p, self.q - 1
        seen = bytearray(self.q)
        for c in range(1, self.q):
            if seen[c]:
                continue
            step = _poly_trim(self.elements[c].coeffs)
            powers, x = [1], step
            while x != (1,) and len(powers) < n:
                powers.append(self._index(x))
                x = _poly_mod(_poly_mul(x, step, p), modulus, p)
            if x != (1,):
                # a zero divisor: its powers never return to 1
                raise ValueError("modulus is reducible")
            if len(powers) == n:
                return powers
            for v in powers:
                seen[v] = 1
        raise AssertionError("no generator found")

    # -- element access and I/O ----------------------------------------------

    def elem(self, coeffs) -> FieldElem:
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coeffs)}")
        return self.elements[self._index(coeffs)]

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
        """Parse a field literal: ``0``, ``g^j``, or (prime fields) a residue."""
        text = text.strip()
        if text == "0":
            return self.zero
        if text == "1":
            return self.one
        if text.startswith("g^"):
            try:
                j = int(text[2:])
            except ValueError:
                raise ValueError(f"bad field literal {text!r}") from None
            if j < 0:
                raise ValueError(f"bad field literal {text!r}")
            return self.unit_from_exp(j)
        if self.k == 1 and text.isdigit():
            return self.residue(int(text))
        raise ValueError(f"bad field literal {text!r}")

    def clear_memos(self) -> None:
        """Drop every result cached by a :func:`memoized` function."""
        self._memos.clear()

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


class _Packings(dict):
    """``packings[n]`` is ``(w, stride, enc, planes, dec)``: the tables that
    multiply series of field indices as packed integers
    (``amzv.zeta._mul_series``) when each product coefficient is a sum of at
    most n products.

    Coordinate j of the coefficient of u^i takes the w-byte sub-slot
    (2k - 1) i + j of a little-endian integer, so a coefficient takes
    ``stride`` = (2k - 1) w bytes.  A product of two such integers holds in
    each sub-slot a coefficient of a polynomial of degree below 2k - 1 in the
    generator t: a sum of at most n * k products of digits below p.  With w
    the least byte count above n * k * (p - 1)^2, no sub-slot carries into
    the next.

    - ``enc(a)`` is the packed bytes of a series of indices;
    - ``planes[j]`` is the ``bytes.translate`` table taking byte j of a
      sub-slot, b, to b * 256^j mod p;
    - ``dec(r)`` reads each run of 2k - 1 residues mod p, a polynomial in t,
      as the index of its remainder modulo the modulus; for k = 1 the
      residues are the indices.

    Tables are built once per width, on first use, and kept across
    :meth:`FieldSpec.clear_memos`.
    """

    def __init__(self, spec: FieldSpec):
        super().__init__()
        self.spec = spec
        self.by_width: dict = {}
        self.dec = None

    def __missing__(self, n: int) -> tuple:
        spec = self.spec
        p, k = spec.p, spec.k
        w = ((n * k * (p - 1) ** 2).bit_length() + 7) >> 3
        tables = self.by_width.get(w)
        if tables is None:
            stride = (2 * k - 1) * w
            if stride == 1:
                # a series of indices below p packs as its own bytes
                enc = bytes
            else:
                # the k - 1 sub-slots above the digits start empty
                pad = bytes((k - 1) * w)
                slots = tuple(b"".join(c.to_bytes(w, "little") for c in e.coeffs) + pad
                              for e in spec.elements)

                def enc(a):
                    return b"".join(map(slots.__getitem__, a))
            # b * 256^j mod p is periodic in b with period p
            rows = (bytes(b * pow(256, j, p) % p for b in range(p)) for j in range(w))
            planes = tuple((row * (256 // p + 1))[:256] for row in rows)
            if self.dec is None:
                self.dec = self._decoder()
            tables = self.by_width[w] = (w, stride, enc, planes, self.dec)
        self[n] = tables
        return tables

    def _decoder(self):
        spec = self.spec
        k, p = spec.k, spec.p
        if k == 1:
            return bytes
        # index p is the polynomial generator t, and c in F_p has index c;
        # values in the order of ``product``, whose last coordinate runs fastest
        add, mul, _ = spec.idx_ops
        values, tj = [0], 1
        for _ in range(2 * k - 1):
            values = [add[v][mul[c][tj]] for v in values for c in range(p)]
            tj = mul[tj][p]
        # keys are the 1-tuples that ``iter_unpack`` yields, in the same order
        runs = struct.Struct(f"{2 * k - 1}s").iter_unpack
        residues = itertools.product(range(p), repeat=2 * k - 1)
        table = dict(zip(runs(bytes(itertools.chain.from_iterable(residues))), values))

        def dec(r):
            return list(map(table.__getitem__, runs(r)))
        return dec


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration of one degree would exceed ``zeta.BUDGET``."""


def memoized(name: str):
    """Cache ``fn(spec, *args)`` in ``spec``'s memo ``name``, keyed by the
    hashable ``args``.  Results are pure values, never ``None``, so
    concurrent writers only race on identical data.  Callers answer trivial
    inputs themselves, so those take no entry.  The cached function's
    ``lookup(spec, *args)`` returns the cached result, or None if there is
    none, and takes no entry either."""
    def decorate(fn):
        @functools.wraps(fn)
        def cached(spec: FieldSpec, *args):
            memo = spec._memos[name]
            out = memo.get(args)
            if out is None:
                out = memo[args] = fn(spec, *args)
            return out

        def lookup(spec: FieldSpec, *args):
            memo = spec._memos.get(name)
            return None if memo is None else memo.get(args)

        cached.lookup = lookup
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
