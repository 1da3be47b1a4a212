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

- ``power_sum_d`` is an oracle only, sharing only the series kernel with
  the route below: the brute-force side of the tests' power-sum checks.
  The sum over one chain of degrees factors into per-degree sums
  E(s, m) = sum of 1/a^s over monic a of degree m, so it enumerates the
  monic polynomials of each degree once per call.  It keeps no memo, and
  neither does ``laurent_inv_pow``: a call's own sums are its only cache.
- ``power_sum_lt``, ``power_sum_lt_element`` and ``zeta_trunc`` take the
  factorized route below, and so do ``amzv powsum`` and the harness's Chen
  family, which read S_d as S_{<d+1} - S_{<d}.  It enumerates no monic
  polynomial; its only enumeration is the depth-one kernel's coefficient
  vectors, and its memos (the partial-sum steps and the depth-one sums
  they read again) are the module's only ones.

Every enumeration visits the q^d monic polynomials or coefficient vectors of
one degree d, and q^d is capped at ``amzv.ff.BUDGET``, read when it runs;
past the cap it raises :class:`BudgetExceededError`.  Each route refuses
where it starts: ``monic_enum`` before it lists a polynomial, and a walk to
S_{<d} before its first step, at the first degree it would sum past the
cap.  Its tails sum only lower degrees, so a value that cannot finish sums
no vector.

``zeta_trunc`` is S_{<N+1}: every summand S_d has valuation >= d, so the sum
is exact to the horizon.  The route peels one letter at a time,
S_d(x_{s,eps} w) = eps^d S_d(s) S_{<d}(w), and one memoized step adds degree
t - 1 to S_{<t-1}, asking the tail only where the head is nonzero; run for t
in ascending order, it builds each S_{<t} once, with a stack as deep as the
word, and a walk to S_{<d} resumes after the highest step already built.
The depth-one power sums S_d(s) go through a faster kernel: for a monic
a = theta^d + c_{d-1}theta^{d-1} + ... + c_0,

    1/a^s = u^{ds} (1 + h(u))^{-s},   h(u) = sum_t c_{d-t} u^t,

and summing the expansion over all q^d coefficient vectors needs only the
first N - ds coefficients.  Whenever d > N - ds - 1 the truncated sum picks
up a factor q from each coefficient that cannot influence the window, and
q = 0 in characteristic p, so the whole power sum vanishes below the horizon;
the kernel therefore only ever enumerates q^d vectors with d(s+1) < N.  That
window rule lives in one function, ``_degree_end``, which the kernel and the
partial sums read.  This route is cross-checked against the oracle
``power_sum_d`` in the test suite.

Coefficients are stored as field indices: a series window is a tuple of ints,
and ``+``, ``-`` and scaling look their results up in the per-field
``add``/``mul``/``neg`` index tables (:attr:`FieldSpec.idx_ops`), which are
built once per field and survive memo clearing.  Every product of series
(``Laurent.__mul__`` and the powers (1 + h)^s of the inverse powers 1/a^s) is
one product of two Python ints (``_mul_series``) in the layout that
``_packing`` documents and builds the tables for, once per field and byte
width, in ``FieldSpec.packings``, outside the memos.
The unit-series inverse (``_unit_inv``) is a recursion on indices.
:class:`FieldElem` values appear only at the boundary: the constructor,
``coeff``, ``coeffs``, ``scale``'s argument, and the text functions
``format_laurent`` / ``parse_laurent``.  Each binary operation checks once
that both operands live over the same field.
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

    @classmethod
    def theta(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.zero, spec.one))

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

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec.key == other.spec.key and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec.key, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.idx == 0:
                continue
            var = "" if i == 0 else ("theta" if i == 1 else f"theta^{i}")
            if i == 0:
                parts.append("1" if c.idx == 1 else self.spec.format_elem(c))
            elif c.idx == 1:
                parts.append(var)
            else:
                parts.append(f"{self.spec.format_elem(c)}*{var}")
        return " + ".join(parts)


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
        spec = self.spec
        check_field(spec, other.spec)
        prec = min(self.prec, other.prec)
        a, b = self.idx, other.idx
        if not a:
            return other.truncate(prec)
        if not b:
            return self.truncate(prec)
        lo, hi = self.val, other.val
        if lo > hi:
            a, b, lo, hi = b, a, hi, lo
        # a starts at u^lo, b at u^hi >= u^lo; the sum is known below prec
        width = min(prec, max(lo + len(a), hi + len(b))) - lo
        out = list(a[:width])
        out += [0] * (width - len(out))
        add = spec.idx_ops[0]
        k = hi - lo
        for c in b[: max(0, width - k)]:
            if c:
                out[k] = add[out[k]][c]
            k += 1
        return _laurent(spec, lo, out, prec)

    def __neg__(self) -> "Laurent":
        neg = self.spec.idx_ops[2]
        return _laurent(self.spec, self.val, [neg[c] for c in self.idx], self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + -other

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

    They are cached in ``spec.packings`` under n, and shared per byte width
    under ``("width", w)`` and per field under ``"dec"``; no memo holds
    them, so they outlive ``clear_memos``.
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
        dec = packings.get("dec")
        if dec is None:
            dec = packings["dec"] = _run_decoder(spec)
        tables = packings["width", w] = (w, stride, enc, planes, dec)
    packings[n] = tables
    return tables


def _run_decoder(spec: FieldSpec):
    """The ``dec`` of :func:`_packing`, one per field."""
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


def _unit_inv(h, M: int, add, mul, neg) -> list[int]:
    """The first M coefficients of 1/(1 + h_1 u + h_2 u^2 + ...), where
    ``h[t - 1]`` is h_t."""
    # (t, row of h_t in the product table) for every nonzero h_t
    terms = [(t, mul[ht]) for t, ht in enumerate(h[: M - 1], 1) if ht]
    g = [0] * M
    if M:
        g[0] = 1
    for m in range(1, M):
        acc = 0
        for t, row in terms:
            if t > m:
                break
            acc = add[acc][row[g[m - t]]]
        g[m] = neg[acc]
    return g


def _unit_inv_pow(spec: FieldSpec, h, s: int, M: int) -> list[int]:
    """The first M coefficients of (1 + h_1 u + h_2 u^2 + ...)^(-s)."""
    if s > 1:
        pw, cur = None, [1, *h]
        while True:
            if s & 1:
                pw = cur if pw is None else _mul_series(spec, pw, cur, M)
            s >>= 1
            if not s:
                break
            cur = _mul_series(spec, cur, cur, M)
        h = pw[1:]
    add, mul, neg = spec.idx_ops
    return _unit_inv(h, M, add, mul, neg)


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


_LTERM_RE = re.compile(r"^(?:(?P<coeff>g\^\d+|\d+)\*?)?(?:u(?:\^(?P<exp>\(?-?\d+\)?))?)?$")


def parse_laurent(text: str, spec: FieldSpec) -> Laurent:
    """Parse the output of :func:`format_laurent` (tests use this).  A term
    at or beyond the horizon, which ``format_laurent`` never prints, is
    refused."""
    coeffs: dict[int, FieldElem] = {}
    prec = None
    for raw in text.strip().split(" + "):
        term = raw.strip()
        if term.startswith("O("):
            inner = term[2:-1]
            if not inner.startswith("u^") and inner != "u":
                raise ValueError(f"bad precision marker {term!r}")
            prec = 1 if inner == "u" else int(inner[2:].strip("()"))
            continue
        if term == "0":
            continue
        m = _LTERM_RE.match(term)
        if m is None or (m.group("coeff") is None and "u" not in term):
            raise ValueError(f"bad series term {term!r}")
        c = spec.parse_elem(m.group("coeff")) if m.group("coeff") else spec.one
        if "u" in term:
            e = 1 if m.group("exp") is None else int(m.group("exp").strip("()"))
        else:
            e = 0
        coeffs[e] = coeffs.get(e, spec.zero) + c
    if prec is None:
        raise ValueError("series text must end with a precision marker O(u^N)")
    if coeffs and max(coeffs) >= prec:
        raise ValueError(f"series term at {_fmt_exp(max(coeffs))} is at or beyond "
                         f"the horizon O({_fmt_exp(prec)})")
    if not coeffs:
        return Laurent.zero(spec, prec)
    lo = min(coeffs)
    return Laurent(spec, lo, [coeffs.get(e, spec.zero) for e in range(lo, prec)], prec)


# -- power sums by monic enumeration (the oracle) ---------------------------------


def laurent_inv_pow(a: Poly, s: int, prec_coeffs: int) -> Laurent:
    """1/a^s for monic a, with ``prec_coeffs`` correct coefficients from the
    valuation s*deg(a) on (geometric-series expansion of the unit part)."""
    if not a.coeffs:
        raise ValueError("cannot invert the zero polynomial")
    if not a.is_monic():
        raise ValueError("inverse powers are taken of monic polynomials only")
    if s < 1:
        raise ValueError("exponent must be >= 1")
    if prec_coeffs < 0:
        raise ValueError("precision must be >= 0")
    spec, d = a.spec, a.degree
    # a = theta^d (1 + h(u)) with h_t the coefficient of theta^(d-t)
    h = [a.coeffs[d - t].idx for t in range(1, min(d, prec_coeffs - 1) + 1)]
    g = _unit_inv_pow(spec, h, s, prec_coeffs)
    return _laurent(spec, d * s, g, d * s + prec_coeffs)


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
                sums[s, m] = sum((laurent_inv_pow(a, s, N) for a in monic_enum(m, spec)),
                                 Laurent.zero(spec, N))
            scalar = scalar * lt.eps**m
            term = term * sums[s, m]
        acc = acc + term.scale(scalar)
    return acc


def power_sum_lt(w: Word, d: int, N: int) -> Laurent:
    """S_{<d}(w) of a nonempty word = sum of S_m(w) over 0 <= m < d,
    absolute precision N, by the factorized route (:func:`_partial_sums`)."""
    return _lt_word(word_to_array(w)[0].eps.spec, w, d, N)


def power_sum_lt_element(e: Element, d: int, N: int) -> Laurent:
    """Linear extension of S_{<d} to the word algebra; the empty word maps to 1."""
    spec = e.spec
    acc = Laurent.zero(spec, N)
    for w, c in e.idx.items():
        term = _lt_word(spec, w, d, N) if w else Laurent.one(spec, N)
        acc = acc + term.scale(spec.elements[c])
    return acc


def _lt_word(spec: FieldSpec, w: Word, d: int, N: int) -> Laurent:
    """S_{<d}(w) of a nonempty word.  S_m(w) is zero below u^N for m below
    its depth minus one, so S_{<d} is zero for d < len(w) and takes no memo
    entry, and from its head's window end on, so d is cut there.  The steps
    t = len(w), ..., d run in ascending order: each finds its predecessor in
    the memo, so the stack grows with the word's depth, not its degree.  The
    walk resumes after the highest step already in the memo, so a caller
    that asks d, d + 1, ... in turn calls each step once.  Before the first
    step the walk refuses the first degree past the budget that it would
    sum, so it sums no vector for a value it cannot finish."""
    top = min(d, _degree_end(w[0].n, N))
    if top < len(w):
        return Laurent.zero(spec, N)
    t = top
    while t >= len(w) and (acc := _built_partial_sums(spec, w, t, N)) is None:
        t -= 1
    # the steps t + 1, ..., top sum the head's degrees t, ..., top - 1 (from
    # 1 on: degree 0 sums no vector), and every tail's degrees are lower
    q, m = spec.q, max(1, t)
    while m < top and q**m <= ff.BUDGET:
        m += 1
    if m < top:
        _check_budget(q, m)
    for t in range(t + 1, top + 1):
        acc = _partial_sums(spec, w, t, N)
    return acc


# -- fast per-degree kernel for the zeta map --------------------------------------


def _degree_end(s: int, N: int) -> int:
    """The first degree D >= 1 from which on S_d(s) is zero below u^N:
    D = max(1, ceil(N / (s + 1))), so d >= 1 has an open window iff
    d(s + 1) < N (see module docstring)."""
    return max(1, -(-N // (s + 1)))


def _depth1_power_sum(spec: FieldSpec, s: int, d: int, N: int) -> Laurent:
    """S_d((1); (s)) to absolute precision N, summing the expansions of
    1/a^s over all monic a of degree d but only on the window that survives
    the characteristic-p collapse (see module docstring)."""
    if d == 0:
        return Laurent.one(spec, N)
    if d >= _degree_end(s, N):
        return Laurent.zero(spec, N)
    return _depth1_window(spec, s, d, N)


@memoized("depth1_power_sum")
def _depth1_window(spec: FieldSpec, s: int, d: int, N: int) -> Laurent:
    """:func:`_depth1_power_sum` for d >= 1 whose window below N is open;
    :func:`_lt_word`, its one route, has refused a q^d past the budget."""
    v = d * s
    q = spec.q
    M = N - v
    add = spec.idx_ops[0]
    total = [0] * M
    for h in itertools.product(range(q), repeat=d):
        # the unit part (1 + h_1 u + ... + h_d u^d)^(-s) of 1/a^s, mod u^M
        g = _unit_inv_pow(spec, h, s, M)
        for m in range(M):
            total[m] = add[total[m]][g[m]]
    return _laurent(spec, v, total, N)


@memoized("partial_sums")
def _partial_sums(spec: FieldSpec, w: Word, t: int, N: int) -> Laurent:
    """S_{<t}(w) to absolute precision N, for a nonempty word w = x_{s,eps} v
    and len(w) <= t <= ``_degree_end(s, N)``, by one degree of
    S_d(w) = eps^d S_d(s) S_{<d}(v):

        S_{<t}(w) = S_{<t-1}(w) + eps^(t-1) S_{t-1}(s) S_{<t-1}(v),

    with S_{<t-1}(w) = 0 for t - 1 < len(w).  Where S_{t-1}(s) is zero the
    step returns its predecessor and asks the tail nothing."""
    head, d = w[0], t - 1
    acc = _partial_sums(spec, w, d, N) if d >= len(w) else Laurent.zero(spec, N)
    h = _depth1_power_sum(spec, head.n, d, N)
    if h.is_zero():
        return acc
    term = h.scale(head.eps ** d)
    if len(w) > 1:
        term = term * _lt_word(spec, w[1:], d, N)
    return acc + term


# the steps already built, read without a memo entry; bound here, so a
# wrapper put on ``_partial_sums`` does not hide it
_built_partial_sums = _partial_sums.lookup


def zeta_trunc(e: Element, N: int) -> Laurent:
    """The truncated zeta value of an element, exact to precision N: S_{<N+1}.

    Every word's S_d vanishes below the horizon from its head's window end
    ``_degree_end(s_1, N)`` <= N + 1 on, so this is the full sum.  The empty
    word maps to 1; the map is linear.
    """
    return power_sum_lt_element(e, N + 1, N)
