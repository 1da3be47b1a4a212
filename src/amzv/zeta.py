"""Numerics over F_q[theta]: power sums and truncated zeta-like sums.

The completion at infinity is modeled by truncated Laurent series in
u = 1/theta.  A :class:`Laurent` value knows *all* coefficients of exponents
below its precision horizon ``prec``; the stored window starts at the
valuation ``val`` and everything below it is exactly zero.  Addition and
multiplication track the horizon, so comparisons on the common guaranteed
range are exact, never approximate.

Power sums over monic polynomials:

    S_d(arr)  = sum over chains d = deg a_1 > ... > deg a_n >= 0 of
                eps_1^{deg a_1} ... eps_n^{deg a_n} / (a_1^{s_1} ... a_n^{s_n})
    S_{<d}    = sum of S_m for 0 <= m < d

for a positive array arr = ((eps_1..eps_n); (s_1..s_n)).  The public
power-sum functions take two routes:

- ``power_sum_d`` is an oracle only, sharing only the series kernel with
  the route below: the brute-force side of the numeric identity checks and
  the source of the Chen family's power sums.  The sum over one chain of degrees factors into
  per-degree sums E(s, m) = sum of 1/a^s over monic a of degree m, so it
  enumerates the monic polynomials of each degree once per call.
- ``power_sum_lt``, ``power_sum_lt_element`` and ``zeta_trunc`` take the
  factorized route below, and so does ``amzv powsum``, which reads S_d as
  S_{<d+1} - S_{<d}.  It enumerates no monic polynomial;
  its only enumeration is the depth-one kernel's coefficient vectors.

Every enumeration visits the q^d monic polynomials or coefficient vectors of
one degree d, and q^d is capped at ``BUDGET``, read when it runs; past the
cap it raises :class:`BudgetExceededError`.

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
one product of two Python ints (``_mul_series``): each coefficient's k base-p
digits go in byte sub-slots, 2k - 1 of them per power of u and wide enough
that no sum of digit products carries (``FieldSpec.packings``); the product's
sub-slots are reduced mod p, then mod the field's modulus, back to indices.
The unit-series inverse (``_unit_inv``) is a recursion on indices.
:class:`FieldElem` values appear only at the boundary: the constructor,
``coeff``, ``coeffs``, ``scale``'s argument, and the text functions
``format_laurent`` / ``parse_laurent``.  Each binary operation checks once
that both operands live over the same field.
"""

from __future__ import annotations

import itertools
import re

from .ff import BudgetExceededError, FieldElem, FieldSpec, check_field, memoized
from .words import Element, Word, letter

# the most monic polynomials or coefficient vectors of one degree that one
# enumeration may visit; read at call time, so it is in no memo key
BUDGET = 10**6


def _check_budget(q: int, d: int) -> None:
    """Refuse to enumerate the q^d monic polynomials or coefficient vectors
    of degree d when there are more than ``BUDGET`` of them."""
    if q**d > BUDGET:
        raise BudgetExceededError(f"q^d = {q}^{d} exceeds budget {BUDGET}")


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
    (see ``FieldSpec.packings``); the rest of the first ``width`` are zero."""
    if width <= 0 or not a or not b:
        return ()
    a, b = a[:width], b[:width]
    w, stride, enc, planes, dec = spec.packings[min(len(a), len(b))]
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
    """Parse the output of :func:`format_laurent` (tests use this)."""
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
    if not coeffs:
        return Laurent.zero(spec, prec)
    lo = min(coeffs)
    return Laurent(spec, lo, [coeffs.get(e, spec.zero) for e in range(lo, prec)], prec)


# -- positive arrays -------------------------------------------------------------


class ZetaArray:
    """The index ((eps_1..eps_n); (s_1..s_n)) of a power sum; depth >= 1.

    Immutable: ``eps`` (unit characters) and ``s`` (positive weights) are
    set once, and two arrays are equal when both rows are."""

    __slots__ = ("eps", "s", "_hash")

    def __init__(self, eps: tuple[FieldElem, ...], s: tuple[int, ...]):
        if len(eps) != len(s) or not s:
            raise ValueError("array needs matching nonempty character and weight rows")
        if any(x < 1 for x in s):
            raise ValueError("weights must be positive")
        if any(e.idx == 0 for e in eps):
            raise ValueError("characters must be units")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "s", s)
        # memos are keyed by arrays: hash once, by the characters' indices
        object.__setattr__(self, "_hash", hash((s, tuple(e.idx for e in eps))))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def spec(self) -> FieldSpec:
        return self.eps[0].spec

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.eps, self.s) == (other.eps, other.s)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ZetaArray(eps={self.eps!r}, s={self.s!r})"


def word_to_array(w: Word) -> ZetaArray:
    """x_{s_1,e_1}...x_{s_n,e_n}  ->  ((e_1..e_n); (s_1..s_n))."""
    if not w:
        raise ValueError("the empty word has no array presentation")
    return ZetaArray(tuple(lt.eps for lt in w), tuple(lt.n for lt in w))


def array_to_word(arr: ZetaArray, spec: FieldSpec) -> Word:
    return tuple(letter(spec, n, e) for n, e in zip(arr.s, arr.eps))


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
    return _inv_pow(a.spec, tuple(c.idx for c in a.coeffs), s, prec_coeffs)


@memoized("inv_pow")
def _inv_pow(spec: FieldSpec, a: tuple[int, ...], s: int, prec_coeffs: int) -> Laurent:
    """:func:`laurent_inv_pow` of the monic polynomial with coefficient
    indices ``a`` (ascending)."""
    d = len(a) - 1
    # a = theta^d (1 + h(u)) with h_t the coefficient of theta^(d-t)
    h = [a[d - t] for t in range(1, min(d, prec_coeffs - 1) + 1)]
    g = _unit_inv_pow(spec, h, s, prec_coeffs)
    return _laurent(spec, d * s, g, d * s + prec_coeffs)


def _chain_degrees(d: int, depth: int):
    for rest in itertools.combinations(range(d), depth - 1):
        yield (d,) + tuple(reversed(rest))


def power_sum_d(arr: ZetaArray, d: int, N: int) -> Laurent:
    """S_d(arr) to absolute precision N, by enumerating the monic polynomials
    of each degree d >= m >= 0 once; the first degree is d, so q^d over
    ``BUDGET`` raises before any sum runs."""
    if d < 0 or d < arr.depth - 1:
        return Laurent.zero(arr.spec, N)
    return _power_sum_d(arr.spec, arr, d, N)


@memoized("power_sum_d")
def _power_sum_d(spec: FieldSpec, arr: ZetaArray, d: int, N: int) -> Laurent:
    # a chain's tuples sum to the product of its per-degree monic sums
    # E(s, m), and each E is enumerated once
    sums = {}
    acc = Laurent.zero(spec, N)
    for degs in _chain_degrees(d, arr.depth):
        scalar, term = spec.one, Laurent.one(spec, N)
        for e, s, m in zip(arr.eps, arr.s, degs):
            if (s, m) not in sums:
                sums[s, m] = sum((laurent_inv_pow(a, s, N) for a in monic_enum(m, spec)),
                                 Laurent.zero(spec, N))
            scalar = scalar * e**m
            term = term * sums[s, m]
        acc = acc + term.scale(scalar)
    return acc


def power_sum_lt(arr: ZetaArray, d: int, N: int) -> Laurent:
    """S_{<d}(arr) = sum of S_m(arr) over 0 <= m < d, absolute precision N,
    by the factorized route (:func:`_partial_sums`)."""
    spec = arr.spec
    return _lt_word(spec, array_to_word(arr, spec), d, N)


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
    that asks d, d + 1, ... in turn calls each step once."""
    top = min(d, _degree_end(w[0].n, N))
    if top < len(w):
        return Laurent.zero(spec, N)
    t = top
    while t >= len(w) and (acc := _built_partial_sums(spec, w, t, N)) is None:
        t -= 1
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
    """:func:`_depth1_power_sum` for d >= 1 whose window below N is open."""
    v = d * s
    q = spec.q
    _check_budget(q, d)
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
