"""Numerics over F_q[theta]: power sums and truncated zeta-like sums.

The completion at infinity is modeled by truncated Laurent series in
u = 1/theta.  A :class:`Laurent` value knows *all* coefficients of exponents
below its precision horizon ``prec``; the stored window starts at the
valuation ``val`` and everything below it is exactly zero.  Addition and
multiplication track the horizon, so comparisons on the common guaranteed
range are exact, never approximate.

Power sums over monic polynomials:

    S_d(w)    = sum over chains d = deg a_1 > ... > deg a_n >= 0 of
                eps_1^{deg a_1} ... eps_n^{deg a_n} / (a_1^{s_1} ... a_n^{s_n})
    S_{<d}(w) = sum of S_m(w) for 0 <= m < d

for a nonempty word w = x_{s_1,eps_1} ... x_{s_n,eps_n}; the paper writes
its index as the positive array ((eps_1..eps_n); (s_1..s_n)), and each
letter carries its s and eps.  The public power-sum functions take two
routes:

- ``power_sum_d`` is an oracle only, the brute-force side of the tests'
  power-sum checks; of the route below it shares the series arithmetic
  and ``_unit_inv``, and it takes the powers of 1/a by ``Laurent`` products.
  The sum over one chain of degrees factors into per-degree sums
  E(s, m) = sum of 1/a^s over monic a of degree m, so it enumerates the
  monic polynomials of each degree once per call.  It keeps no memo, and
  neither does ``laurent_inv_pow``: a call's own sums are its only cache.
- ``power_sum_lt``, ``power_sum_lt_element`` and ``zeta_trunc`` take the
  factorized route below, and so do ``amzv powsum`` and the harness's Chen
  family, which read S_d as S_{<d+1} - S_{<d}.  ``power_sum_lt_element``
  sums every word's value into one window of field indices and builds one
  series at the end; a word that the depth rule makes zero is skipped
  before any walk.  The route enumerates no monic polynomial; its only
  enumeration is the depth-one kernel's coefficient vectors, and its memos
  (the tables of partial sums and the depth-one sums they read again) are
  the module's only ones.

Every enumeration covers the q^d monic polynomials or coefficient vectors
of one degree d (the kernel below visits 2q^(d-1) of the vectors, one per
unit orbit of the leading digit), and q^d is capped at ``amzv.ff.BUDGET``,
read when it runs; past the cap it raises :class:`BudgetExceededError`.
Each route refuses where it starts, once per read: ``monic_enum`` before it
lists a polynomial, ``power_sum_lt`` before its walk to S_{<d} reads the
word's table, at the first degree past the cap that a walk from an empty
table would sum, and ``power_sum_lt_element`` runs that refusal for every
word before it walks the first.  The walk checks nothing itself: its tails sum
only lower degrees than its head, so where the head passes they pass.  So
whether a value refuses does not depend on what the memos hold, a refused
walk adds no table, and a value that cannot finish, of a word or of an
element, sums no vector.

``zeta_trunc`` is S_{<N+1}: every summand S_d has valuation >= d, so the sum
is exact to the horizon.  The route peels one letter at a time,
S_d(x_{s,eps} w) = eps^d S_d(s) S_{<d}(w).  Each word keeps one memoized
table of its partial sums S_{<t}, and a walk to S_{<d} returns its entry or
extends the table in one ascending loop, one degree per entry, walking the
tail only where the head and the depth rule for the tail are nonzero: it
builds each S_{<t} once, with a stack as deep as the word.  Each step
stores one series: the head's window times the tail's window in one
product, added with the factor eps^t into a copy of the previous entry's
window.
The depth-one power sums S_d(s) go through a faster kernel: for a monic
a = theta^d + c_{d-1}theta^{d-1} + ... + c_0,

    1/a^s = u^{ds} (1 + h(u))^{-s},   h(u) = sum_t c_{d-t} u^t,

and summing the expansion over all q^d coefficient vectors needs only the
first M = N - ds coefficients.  The coefficient g_m of u^m in the unit part
(1 + h)^(-s), like that of (1 + h)^s, depends on h_1..h_m only, so:

- for m < d each value of g_m recurs q^(d - m) times over the vectors, and
  q = 0 in characteristic p, so only g_d, ..., g_{M-1} are summed.  When
  M <= d nothing is left and the whole power sum vanishes below the
  horizon; the kernel therefore only ever sums a degree with d(s+1) < N,
  that is, when g_{M-1} is still summed.
- a unit lambda of F_q acts by (lambda.h)_t = lambda^t h_t, and
  1 + (lambda.h)(u) = (1 + h)(lambda u), so g_m(lambda.h) = lambda^m g_m(h).
  The map (lambda, h) -> lambda.h is a bijection from the units times the
  vectors with h_1 = 1 onto those with h_1 != 0, and the character sum
  sum over lambda of lambda^m is -1 when (q - 1) | m and 0 otherwise
  (Thakur, *Function Field Arithmetic*, 2004).  So the kernel visits the
  2q^(d-1) vectors with h_1 in {0, 1}: those with h_1 = 0 add every g_m,
  and each with h_1 = 1 adds -g_m for its orbit, at (q - 1) | m only.  At
  q = 2 that is every vector, and -1 = 1.
- in ``itertools.product`` order a vector shares every digit before its
  last nonzero one, h_t, with its predecessor, so g keeps g_0..g_{t-1}, and
  the recurrence g_m = -(H_1 g_{m-1} + ... + H_m g_0) of the inverse of
  1 + H = (1 + h)^s runs from g_t on, into one list kept across the loop.
  For s > 1 each vector's power (1 + h)^s is still computed whole, by
  packed products (``_unit_pow``).

The recurrence has one copy, ``_unit_inv``, which the kernel and the
oracle's ``laurent_inv_pow`` share; ``_unit_pow`` is the kernel's alone.
The window rule lives in one function, the depth rule ``_lt_top``, which
computes the head's window end D = max(1, ceil(N / (s_1 + 1))) itself:
S_{<d}(w) is zero below the horizon when min(d, D) is below the depth of
w.  Every reader of S_{<d}
(``power_sum_lt``, ``power_sum_lt_element`` and the walk's step, for its
tail) asks ``_lt_top`` once per read and hands the walk the last step it
returns, so no walk applies the rule to its own word and none is started for
a zero.  So every degree a walk sums is inside its head's window, and the
kernel ``_depth1_window`` has one caller, the walk ``_lt_word``, which takes
S_0(s) = 1 itself.  This route is cross-checked against the oracle
``power_sum_d`` in the test suite.

Coefficients are stored as field indices: a series window is a tuple of ints,
and ``+``, ``-`` and scaling look their results up in the per-field
``add``/``mul``/``neg`` index tables (:attr:`FieldSpec.idx_ops`), which are
built once per field and survive memo clearing.  Every sum of series
windows (``+`` and ``-``, an element's sum over its words and the walk's
step) goes through one kernel, ``_accumulate``, which adds c·u^k·window
into a list of indices in place, as ``words.accumulate`` does for an
Element; besides it only the depth-one kernel, its recurrence and the
packed-product decoder read the ``add`` table.  Every product of series
(``Laurent.__mul__``, the walk's step and the kernel's powers (1 + h)^s)
is one product of two Python ints (``_mul_series``) in the layout that
``_packing`` documents; it builds a byte width's encoder, planes and
decoder together, once per field and width, in ``FieldSpec.packings``,
outside the memos.  The unit-series inverse
(``_unit_inv``) is a recurrence on indices.  :class:`FieldElem` values
appear only at the boundary: the constructor, ``coeff``, ``coeffs``,
``scale``'s argument, and the text functions: ``parse_laurent`` reads
back the grammar that ``format_laurent`` prints, where every power of u is
``u``, ``u^e`` or ``u^(-e)``, in a term and in the closing marker alike,
and every coefficient is a field literal of ``FieldSpec.parse_elem``.
Each binary operation checks once that both operands live over the same
field.
"""

from __future__ import annotations

import itertools
import re
import struct

from . import ff
from .ff import BudgetExceededError, FieldElem, FieldSpec, check_field, memoized
from .words import Element, Word


def _check_budget(q: int, d: int) -> None:
    """Refuse to enumerate the q^d monic polynomials or coefficient vectors
    of degree d when there are more than ``ff.BUDGET`` of them."""
    if q**d > ff.BUDGET:
        raise BudgetExceededError(f"q^d = {q}^{d} exceeds budget {ff.BUDGET}")


# -- polynomials in theta ------------------------------------------------------


class Poly:
    """Polynomial over F_q, ascending coefficients, no trailing zeros."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].idx == 0:
            coeffs = coeffs[:-1]
        self.spec = spec
        self.coeffs = coeffs

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.one,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].idx == 1

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.spec)
        spec = self.spec
        out = [spec.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.idx == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(spec, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec.key == other.spec.key and self.coeffs == other.coeffs


def monic_enum(d: int, spec: FieldSpec) -> list[Poly]:
    """All q^d monic polynomials of degree d, in a fixed counting order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    _check_budget(spec.q, d)
    # the constant term varies fastest
    return [Poly(spec, (*c[::-1], spec.one))
            for c in itertools.product(spec.elements, repeat=d)]


# -- truncated Laurent series in u = 1/theta ------------------------------------


class Laurent:
    """Series with exact coefficients for all exponents below ``prec``.

    ``idx[i]`` is the field index (see :attr:`FieldSpec.idx_ops`) of the
    coefficient of u^(val+i); exponents below ``val`` are exactly zero.
    Normal form has no zero at either end of the window.  The constructor
    takes :class:`FieldElem` coefficients; arithmetic stays on indices.
    """

    __slots__ = ("spec", "val", "idx", "prec")

    def __init__(self, spec: FieldSpec, val: int, coeffs, prec: int):
        idx = []
        for c in coeffs:
            check_field(spec, c.spec)
            idx.append(c.idx)
        _normalize(self, spec, val, idx, prec)

    @classmethod
    def zero(cls, spec: FieldSpec, prec: int) -> "Laurent":
        return _laurent(spec, prec, (), prec)

    @classmethod
    def one(cls, spec: FieldSpec, prec: int) -> "Laurent":
        return _laurent(spec, 0, (1,), prec)

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """The window as field elements: ``coeffs[i]`` multiplies u^(val+i)."""
        elements = self.spec.elements
        return tuple(elements[c] for c in self.idx)

    def is_zero(self) -> bool:
        return not self.idx

    def valuation(self) -> int | None:
        """Valuation of the known part; None if zero below the horizon."""
        return self.val if self.idx else None

    def coeff(self, e: int) -> FieldElem:
        if e >= self.prec:
            raise ValueError(f"coefficient of u^{e} is beyond precision {self.prec}")
        if self.val <= e < self.val + len(self.idx):
            return self.spec.elements[self.idx[e - self.val]]
        return self.spec.zero

    def truncate(self, prec: int) -> "Laurent":
        if prec >= self.prec:
            return self
        return _laurent(self.spec, self.val, self.idx, prec)

    def __add__(self, other: "Laurent") -> "Laurent":
        return self._plus(other, 1)

    def __neg__(self) -> "Laurent":
        neg = self.spec.idx_ops[2]
        return _laurent(self.spec, self.val, [neg[c] for c in self.idx], self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self._plus(other, self.spec.idx_ops[2][1])

    def _plus(self, other: "Laurent", c: int) -> "Laurent":
        """self + c·other for a nonzero field index c, known below the lower
        horizon: two accumulations into one window from the lower valuation."""
        spec = self.spec
        check_field(spec, other.spec)
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        out = [0] * (prec - lo)
        for x, cx in ((self, 1), (other, c)):
            _accumulate(spec, out, x.val - lo, x.idx[:max(0, prec - x.val)], cx)
        return _laurent(spec, lo, out, prec)

    def scale(self, c: FieldElem) -> "Laurent":
        check_field(self.spec, c.spec)
        if c.idx == 1:
            return self
        if c.idx == 0:
            return Laurent.zero(self.spec, self.prec)
        row = self.spec.idx_ops[1][c.idx]
        return _laurent(self.spec, self.val, [row[x] for x in self.idx], self.prec)

    def __mul__(self, other: "Laurent") -> "Laurent":
        spec = self.spec
        check_field(spec, other.spec)
        # unknown tail of one factor first pollutes exponent prec_a + val_b
        prec = min(self.prec + other.val, other.prec + self.val)
        a, b = self.idx, other.idx
        if not a or not b:
            return Laurent.zero(spec, prec)
        lo = self.val + other.val
        return _laurent(spec, lo, _mul_series(spec, a, b, prec - lo), prec)

    def agrees_with(self, other: "Laurent") -> bool:
        """Coefficient equality on the common guaranteed range."""
        check_field(self.spec, other.spec)
        prec = min(self.prec, other.prec)
        a, b = self.truncate(prec), other.truncate(prec)
        return a.val == b.val and a.idx == b.idx

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return (
            self.spec.key == other.spec.key
            and self.val == other.val
            and self.idx == other.idx
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.spec.key, self.val, self.idx, self.prec))

    def __repr__(self):
        return format_laurent(self)


def _normalize(x: Laurent, spec: FieldSpec, val: int, idx, prec: int) -> None:
    """Fill ``x`` with the window ``idx`` at ``val``, cut at ``prec`` and
    stripped of zeros at both ends."""
    hi = max(0, min(len(idx), prec - val))
    lo = 0
    while lo < hi and not idx[lo]:
        lo += 1
    while hi > lo and not idx[hi - 1]:
        hi -= 1
    x.spec = spec
    x.prec = prec
    if lo == hi:
        x.val, x.idx = prec, ()
    else:
        x.val, x.idx = val + lo, tuple(idx[lo:hi])


def _laurent(spec: FieldSpec, val: int, idx, prec: int) -> Laurent:
    """A :class:`Laurent` from a window of field indices."""
    x = object.__new__(Laurent)
    _normalize(x, spec, val, idx, prec)
    return x


# -- the series kernel: truncated power series as lists of field indices ---------


def _mul_series(spec: FieldSpec, a, b, width: int):
    """At most ``width`` leading coefficients of the product of index series
    a, b, as a sequence of field indices, from one product of packed integers
    (see :func:`_packing`); the rest of the first ``width`` are zero."""
    if width <= 0 or not a or not b:
        return ()
    a, b = a[:width], b[:width]
    terms = min(len(a), len(b))
    w, stride, enc, planes, dec = spec.packings.get(terms) or _packing(spec, terms)
    x = int.from_bytes(enc(a), "little")
    y = x if b is a else int.from_bytes(enc(b), "little")
    size = len(a) + len(b) - 1
    n = min(width, size) * stride
    raw = (x * y).to_bytes(size * stride, "little")[:n]
    # each sub-slot mod p: its bytes, weighted by 256^j mod p, summed plane
    # by plane; two residues add to at most 2p - 2 < 256, so no byte carries
    res = raw[::w].translate(planes[0])
    for j in range(1, w):
        res = (int.from_bytes(res, "little")
               + int.from_bytes(raw[j::w].translate(planes[j]), "little"))
        res = res.to_bytes(n // w, "little").translate(planes[0])
    return dec(res)


def _packing(spec: FieldSpec, n: int) -> tuple:
    """``(w, stride, enc, planes, dec)``: the tables with which
    :func:`_mul_series` multiplies series of field indices as packed
    integers when each product coefficient is a sum of at most n products.

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

    A width's tables are built together, decoder included, and cached in
    ``spec.packings`` under ``("width", w)`` and under every n of that
    width; no memo holds them, so they outlive ``clear_memos``.
    """
    packings = spec.packings
    p, k = spec.p, spec.k
    w = ((n * k * (p - 1) ** 2).bit_length() + 7) >> 3
    tables = packings.get(("width", w))
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
        tables = packings["width", w] = (w, stride, enc, planes, _run_decoder(spec))
    packings[n] = tables
    return tables


def _run_decoder(spec: FieldSpec):
    """The ``dec`` of :func:`_packing`, built with each width's tables."""
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


def _unit_inv(h, g: list[int], start: int, add, mul, neg) -> list[int]:
    """Fill ``g`` from index ``start`` >= 1 on with the coefficients of
    1/(1 + h_1 u + h_2 u^2 + ...) below u^len(g), where ``h[t - 1]`` is h_t,
    by the recurrence g_m = -(h_1 g_{m-1} + ... + h_m g_0), and return it.
    ``g[:start]`` must already hold the first coefficients (g_0 = 1): g_m
    reads h_1..h_m only, so a caller that changes h from digit ``start`` on
    keeps the coefficients below it.  This is the one copy of the recurrence,
    shared by the kernel :func:`_depth1_window` and the oracle's
    :func:`laurent_inv_pow`."""
    M = len(g)
    # (t, row of h_t in the product table) for every nonzero h_t
    terms = [(t, mul[ht]) for t, ht in enumerate(h[: M - 1], 1) if ht]
    for m in range(start, M):
        acc = 0
        for t, row in terms:
            if t > m:
                break
            acc = add[acc][row[g[m - t]]]
        g[m] = neg[acc]
    return g


def _unit_pow(spec: FieldSpec, h, s: int, M: int):
    """The coefficients of u^1, ..., u^(M - 1) of (1 + h_1 u + h_2 u^2 + ...)^s,
    for s >= 1, by binary powering with :func:`_mul_series`; the one of u^m
    reads h_1..h_m only.  The kernel :func:`_depth1_window` alone calls it."""
    pw, cur = None, [1, *h]
    while True:
        if s & 1:
            pw = cur if pw is None else _mul_series(spec, pw, cur, M)
        s >>= 1
        if not s:
            return pw[1:M]
        cur = _mul_series(spec, cur, cur, M)


def _fmt_exp(e: int) -> str:
    return f"u^({e})" if e < 0 else f"u^{e}"


def format_laurent(x: Laurent) -> str:
    parts = []
    elements = x.spec.elements
    for e, c in enumerate(x.idx, x.val):
        if c == 0:
            continue
        cs = x.spec.format_elem(elements[c])
        if e == 0:
            parts.append("1" if c == 1 else cs)
        else:
            ue = "u" if e == 1 else _fmt_exp(e)
            parts.append(ue if c == 1 else f"{cs}*{ue}")
    if not parts:
        parts = ["0"]
    parts.append(f"O({_fmt_exp(x.prec)})")
    return " + ".join(parts)


# u, u^e or u^(-e) (ASCII digits), as format_laurent prints a power of u, or O(...) of one
_POWER_RE = re.compile(r"(O\()?u(?:\^(?:([0-9]+)|\((-[0-9]+)\)))?(?(1)\))")


def _power(text: str, marker: bool) -> int | None:
    m = _POWER_RE.fullmatch(text)
    return int(m[2] or m[3] or 1) if m and bool(m[1]) == marker else None


def parse_laurent(text: str, spec: FieldSpec) -> Laurent:
    """Parse what :func:`format_laurent` prints (tests use this): terms ``0``,
    ``c``, ``p`` or ``c*p`` for a field literal c and a power p of u, then one
    marker ``O(p)``.  A term at or beyond the horizon is refused."""
    terms, prec = [], None
    for raw in text.strip().split(" + "):
        term = raw.strip()
        if prec is not None:
            raise ValueError(f"series term {term!r} follows the precision marker; "
                             "series text must end with its one precision marker")
        if term.startswith("O("):
            if (prec := _power(term, True)) is None:
                raise ValueError(f"bad precision marker {term!r}")
        elif term != "0":
            coeff, star, power = term.rpartition("*")
            if not star:  # a power alone, or a coefficient alone at u^0
                coeff, power = ("1", term) if term.startswith("u") else (term, "u^0")
            e = _power(power, False)
            if e is None:
                raise ValueError(f"bad series term {term!r}")
            terms.append((e, spec.parse_elem(coeff).idx))
    if prec is None:
        raise ValueError("series text must end with a precision marker O(u^N)")
    if terms and max(terms)[0] >= prec:
        raise ValueError(f"series term at {_fmt_exp(max(terms)[0])} is at or beyond "
                         f"the horizon O({_fmt_exp(prec)})")
    lo = min(terms)[0] if terms else prec
    out = [0] * (prec - lo)
    for e, c in terms:
        _accumulate(spec, out, e - lo, (c,), 1)
    return _laurent(spec, lo, out, prec)


# -- power sums by monic enumeration (the oracle) ---------------------------------


def laurent_inv_pow(a: Poly, s: int, prec_coeffs: int) -> Laurent:
    """1/a^s for monic a, with ``prec_coeffs`` correct coefficients from the
    valuation s*deg(a) on: 1/a by ``_unit_inv``, then s - 1 products."""
    if not a.coeffs:
        raise ValueError("cannot invert the zero polynomial")
    if not a.is_monic():
        raise ValueError("inverse powers are taken of monic polynomials only")
    if s < 1:
        raise ValueError("exponent must be >= 1")
    if prec_coeffs < 0:
        raise ValueError("precision must be >= 0")
    spec, d, M = a.spec, a.degree, prec_coeffs
    # a = theta^d (1 + h(u)) with h_t the coefficient of theta^(d-t), so
    # 1/a = u^d (1 + h)^(-1); at M = 0 the horizon cuts g_0 = 1
    h = [a.coeffs[d - t].idx for t in range(1, min(d, M - 1) + 1)]
    out = inv = _laurent(spec, d, _unit_inv(h, [1] + [0] * (M - 1), 1, *spec.idx_ops), d + M)
    # each factor's horizon d + M puts the power's at ds + M; the kernel's
    # _unit_pow stays unshared, so the route-vs-oracle differentials check it
    for _ in range(s - 1):
        out = out * inv
    return out


def _chain_degrees(d: int, depth: int):
    for rest in itertools.combinations(range(d), depth - 1):
        yield (d,) + tuple(reversed(rest))


def word_to_array(w: Word) -> Word:
    """The positive array ((eps_1..eps_n); (s_1..s_n)) of a word
    x_{s_1,eps_1}...x_{s_n,eps_n}: the word itself, whose letters already
    carry each s and eps; the empty word has none."""
    if not w:
        raise ValueError("the empty word has no array presentation")
    return w


def power_sum_d(w: Word, d: int, N: int) -> Laurent:
    """S_d(w) of a nonempty word to absolute precision N, by enumerating the
    monic polynomials of each degree d >= m >= 0 once; the first degree is
    d, so q^d over ``ff.BUDGET`` raises before any sum runs."""
    spec = word_to_array(w)[0].eps.spec
    acc = Laurent.zero(spec, N)
    if d < 0 or d < len(w) - 1:
        return acc
    # a chain's tuples sum to the product of its per-degree monic sums
    # E(s, m), and each E is enumerated once
    sums = {}
    for degs in _chain_degrees(d, len(w)):
        scalar, term = spec.one, Laurent.one(spec, N)
        for lt, m in zip(w, degs):
            s = lt.n
            if (s, m) not in sums:
                # 1/a^s starts at u^(ms), so N - ms coefficients reach u^N
                k = max(0, N - m * s)
                sums[s, m] = sum((laurent_inv_pow(a, s, k) for a in monic_enum(m, spec)),
                                 Laurent.zero(spec, N))
            scalar = scalar * lt.eps**m
            term = term * sums[s, m]
        acc = acc + term.scale(scalar)
    return acc


def power_sum_lt(w: Word, d: int, N: int) -> Laurent:
    """S_{<d}(w) of a nonempty word = sum of S_m(w) over 0 <= m < d,
    absolute precision N, by the factorized route (:func:`_lt_word`) after
    one budget refusal (:func:`_check_walk_budget`), which refuses exactly
    where a fresh field's walk would, before any vector, table or entry."""
    spec = word_to_array(w)[0].eps.spec
    top = _lt_top(w, d, N)
    _check_walk_budget(spec.q, len(w), top)
    return _lt_word(spec, w, top, N) if top else Laurent.zero(spec, N)


def power_sum_lt_element(e: Element, d: int, N: int) -> Laurent:
    """Linear extension of S_{<d} to the word algebra; the empty word maps to 1.

    Every term is summed into one window of field indices below u^N by
    :func:`_accumulate`, which scales the word's value by its coefficient on
    the way in, and one :class:`Laurent` is built from it at the end; the
    empty word adds its coefficient at u^0.  Each word's last step is
    decided once, by :func:`_lt_top`, and a word that it makes zero is
    skipped before any walk or series.  Every word's walk is passed
    through the budget refusal :func:`_check_walk_budget` before the first
    one starts, so an element that cannot finish sums no vector."""
    spec = e.spec
    tops = {w: _lt_top(w, d, N) for w in e.idx if w}
    for w, top in tops.items():
        _check_walk_budget(spec.q, len(w), top)
    out = [0] * N
    for w, c in e.idx.items():
        if not w:
            # 1, cut at the horizon
            _accumulate(spec, out, 0, (1,)[:N], c)
        elif tops[w]:
            # every value has valuation >= 0 and its window ends below u^N
            x = _lt_word(spec, w, tops[w], N)
            _accumulate(spec, out, x.val, x.idx, c)
    return _laurent(spec, 0, out, N)


def _accumulate(spec: FieldSpec, out: list[int], k: int, window, c: int) -> None:
    """In place, ``out += c · u^k · window``: ``out`` is a list of the
    indices of the coefficients of u^0, u^1, ..., ``window`` an index window
    that starts at exponent k and ends inside it, and ``c`` a nonzero field
    index.  The series counterpart of :func:`amzv.words.accumulate`, and
    the one place that sums series windows."""
    add, mul, _ = spec.idx_ops
    if c != 1:
        window = map(mul[c].__getitem__, window)
    for x in window:
        out[k] = add[out[k]][x]
        k += 1


def _lt_top(w: Word, d: int, N: int) -> int:
    """The last step of the walk to S_{<d}(w) for a nonempty word, or 0 when
    S_{<d}(w) is zero below u^N.  S_m(w) is zero below u^N for m below its
    depth minus one, and from its head's window end on: the first degree
    D = max(1, ceil(N / (s_1 + 1))) from which S_m(s_1) is zero below u^N,
    since m >= 1 has an open window iff m(s_1 + 1) < N (see module
    docstring).  So the walk stops at min(d, D) and is empty when that is
    below the depth.  This is the one depth rule: every reader of S_{<d}
    asks it once per read and hands the walk its answer."""
    n = len(w)
    if d < n:
        return 0
    top = min(d, max(1, -(-N // (w[0].n + 1))))
    return top if top >= n else 0


def _check_walk_budget(q: int, n: int, top: int) -> None:
    """Refuse a walk to S_{<top} of a word of depth n at the first degree
    past the budget that a walk from an empty table would sum: the head's
    degrees max(1, n - 1), ..., top - 1 (degree 0 sums no vector), since
    every tail's degrees are lower."""
    if top > 1 and q ** (top - 1) > ff.BUDGET:
        m = max(1, n - 1)
        while q ** m <= ff.BUDGET:
            m += 1
        _check_budget(q, m)


def _lt_word(spec: FieldSpec, w: Word, top: int, N: int) -> Laurent:
    """S_{<top}(w) of a nonempty word w = x_{s,eps} v, for the nonzero
    ``top`` that :func:`_lt_top` gave the caller, so len(w) <= top <= D,
    the head's window end that :func:`_lt_top` computes.  It alone reads
    and extends the table :func:`_partial_sums`: a walk returns a built
    entry, or sums the missing degrees in one ascending loop by

        S_{<t+1}(w) = S_{<t}(w) + eps^t S_t(s) S_{<t}(v),

    asking the depth rule for the tail's last step and walking the tail only
    where S_t(s) and that step are nonzero, so the stack grows with the
    word's depth, not its degree, and a caller that asks d, d + 1, ... in
    turn sums each degree once.  S_0(s) is 1, and every other S_t(s) comes
    from the kernel :func:`_depth1_window`.  A step multiplies the kernel's
    window by the tail's window with one :func:`_mul_series` and adds the
    product, times eps^t, into a copy of the previous entry's window with
    :func:`_accumulate`, so each new entry is one series.  Each entry is
    stored by a slice assignment at its own index, from a predecessor read
    by index, so walks on other threads can only write an equal value
    there.  The walk checks no budget: its callers refuse before it starts,
    and its tails sum only lower degrees than its head."""
    n = len(w)
    sums = _partial_sums(spec, w, N)
    built = len(sums)
    if top - n < built:
        return sums[top - n]
    head, v = w[0], w[1:]
    acc = sums[built - 1] if built else Laurent.zero(spec, N)
    for i in range(built, top - n + 1):
        t = n - 1 + i
        h = _depth1_window(spec, head.n, t, N) if t else Laurent.one(spec, N)
        k, window = h.val, h.idx
        if window and v:
            tail_top = _lt_top(v, t, N)
            tail = _lt_word(spec, v, tail_top, N) if tail_top else None
            if tail is None or not tail.idx:
                window = ()
        if window:
            if v:
                k += tail.val
                window = _mul_series(spec, window, tail.idx, N - k)
            out = [0] * N
            out[acc.val:acc.val + len(acc.idx)] = acc.idx
            _accumulate(spec, out, k, window, (head.eps ** t).idx)
            acc = _laurent(spec, 0, out, N)
        sums[i:i + 1] = [acc]
    return acc


# -- fast per-degree kernel for the zeta map --------------------------------------


@memoized("depth1_power_sum")
def _depth1_window(spec: FieldSpec, s: int, d: int, N: int) -> Laurent:
    """S_d((1); (s)) to absolute precision N for d >= 1 whose window below N
    is open, d(s + 1) < N: the expansions of 1/a^s over all monic a of
    degree d, summed only on the coefficients u^(ds + m), d <= m < N - ds,
    that survive the characteristic-p collapse.  It visits the 2q^(d-1)
    coefficient vectors whose leading digit h_1 is 0 or 1, in
    ``itertools.product`` order, and recomputes each one's unit part with
    :func:`_unit_inv` from its first changed digit, its last nonzero one,
    on.  A vector with h_1 = 1 stands for its orbit under the units of F_q,
    which scale g_m by lambda^m and sum to -g_m where (q - 1) | m and to
    zero elsewhere (see module docstring).  Its one caller is the walk
    :func:`_lt_word`, which sums only degrees below the head's window end
    that :func:`_lt_top` computes, so the window is open, and whose reader
    has refused a q^d past the budget first."""
    q, v = spec.q, d * s
    M = N - v
    add, mul, neg = spec.idx_ops
    # the sums of g_m over the vectors with h_1 = 0 and with h_1 = 1
    total, lead = [0] * M, [0] * M
    # below u^d each g_m recurs q^(d - m) times, so it sums to zero; a vector
    # with h_1 = 1 stands for its orbit h_1 != 0, where g_m sums to -g_m when
    # (q - 1) | m and to zero otherwise (see module docstring)
    blocks = (total, range(d, M)), (lead, range(-(-d // (q - 1)) * (q - 1), M, q - 1))
    # the unit part (1 + h_1 u + ... + h_d u^d)^(-s) of 1/a^s, mod u^M, for
    # the current vector h; g_0 = 1 for every vector
    g = [1] + [0] * (M - 1)
    for h in itertools.product(range(2), *[range(q)] * (d - 1)):
        # h shares every digit before its last nonzero one, h_t, with its
        # predecessor, so g keeps its coefficients below u^t (t = 1 for h = 0)
        t = d
        while t > 1 and not h[t - 1]:
            t -= 1
        _unit_inv(_unit_pow(spec, h, s, M) if s > 1 else h, g, t, add, mul, neg)
        acc, ms = blocks[h[0]]
        for m in ms:
            acc[m] = add[acc[m]][g[m]]
    _accumulate(spec, total, 0, lead, neg[1])
    return _laurent(spec, v, total, N)


@memoized("partial_sums")
def _partial_sums(spec: FieldSpec, w: Word, N: int) -> list[Laurent]:
    """The table of the word's partial sums to absolute precision N: entry
    i is S_{<len(w)+i}(w), and S_{<t}(w) = 0 below t = len(w).  It starts
    empty, and only :func:`_lt_word` reads or extends it."""
    return []


def zeta_trunc(e: Element, N: int) -> Laurent:
    """The truncated zeta value of an element, exact to precision N: S_{<N+1}.

    Every word's S_d vanishes below the horizon from its head's window end
    max(1, ceil(N / (s_1 + 1))) <= N + 1 on, where :func:`_lt_top` stops
    each walk, so this is the full sum.  The empty word maps to 1; the map
    is linear.
    """
    return power_sum_lt_element(e, N + 1, N)
