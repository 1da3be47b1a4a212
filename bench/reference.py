"""Independent numeric reference for the benchmark's correctness checks.

Nothing in this module imports ``amzv``.  It has its own prime-power field,
its own truncated series in u = 1/theta and its own reader for the series
text that ``amzv`` prints, so a fault in the program's arithmetic cannot hide
in the reference.

The reference value is Carlitz's closed form for depth-one power sums: for a
unit eps of F_q and 1 <= s <= q,

    S_d((eps); (s)) = eps^d * (-1)^(d*s) * prod_{i=1..d} (theta^(q^i) - theta)^(-s)

where S_d sums 1/a^s over the monic a of degree d.  Each factor expands as

    1 / (theta^Q - theta) = u^Q * sum_{k >= 0} u^(k*(Q-1)),   Q = q^i,

so S_d has valuation s*(q + q^2 + ... + q^d) and every coefficient lies in
the prime field except for the eps^d in front.  ``brute_power_sum`` sums
1/a^s over all monic a literally; ``check_reference.py`` tests the closed form
against it.

Field elements are ints 0 .. q-1 holding the coordinates c_0 + c_1 p + ...
of c_0 + c_1 x + ... modulo the field's modulus.  The modulus is the first
monic irreducible polynomial of degree k in the same counting order, and the
generator g is the first element in that order whose multiplicative order is
q - 1.  Units print as ``g^j``, matching the program's documented text form.
"""

from __future__ import annotations

import itertools
import re


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of two coordinate vectors of length k modulo a monic modulus."""
    k = len(mod) - 1
    out = [0] * (2 * k - 1 if k else 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for top in range(len(out) - 1, k - 1, -1):
        c = out[top]
        if c:
            for i in range(k + 1):
                out[top - k + i] = (out[top - k + i] - c * mod[i]) % p
    return (out + [0] * k)[:k]


def _is_irreducible(mod: list[int], p: int) -> bool:
    """No root-free test needed at the degrees used here: trial division by
    every monic polynomial of degree 1 .. k-1."""
    k = len(mod) - 1
    for deg in range(1, k):
        for low in itertools.product(range(p), repeat=deg):
            div = list(low) + [1]
            rem = list(mod)
            for top in range(len(rem) - 1, deg - 1, -1):
                c = rem[top]
                if c:
                    for i in range(deg + 1):
                        rem[top - deg + i] = (rem[top - deg + i] - c * div[i]) % p
            if not any(rem[:deg]):
                return False
    return True


class RefField:
    """F_q by full addition and multiplication tables."""

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.p, self.k, self.q = p, k, q
        digits = [[(v // p**i) % p for i in range(k)] for v in range(q)]
        if k == 1:
            self.modulus = [0, 1]
        else:
            self.modulus = next(
                list(low) + [1]
                for low in (digits[v] for v in range(q))
                if _is_irreducible(list(low) + [1], p)
            )

        def encode(c):
            return sum(x * p**i for i, x in enumerate(c))

        self.add_t = [[encode([(x + y) % p for x, y in zip(digits[a], digits[b])])
                       for b in range(q)] for a in range(q)]
        self.mul_t = [[encode(_poly_mulmod(digits[a], digits[b], self.modulus, p))
                       if k > 1 else (a * b) % p for b in range(q)] for a in range(q)]
        self.neg_t = [encode([(-x) % p for x in digits[a]]) for a in range(q)]
        self.gen = next(g for g in range(1, q) if self._order(g) == q - 1)
        self.log = {}
        x = 1
        for j in range(q - 1):
            self.log[x] = j
            x = self.mul_t[x][self.gen]

    def _order(self, a: int) -> int:
        x, n = a, 1
        while x != 1:
            x = self.mul_t[x][a]
            n += 1
        return n

    def residue(self, m: int) -> int:
        return m % self.p

    def unit(self, j: int) -> int:
        """g^j."""
        x = 1
        for _ in range(j % (self.q - 1)):
            x = self.mul_t[x][self.gen]
        return x

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self.mul_t[out][a]
        return out

    def fmt(self, a: int) -> str:
        return "0" if a == 0 else f"g^{self.log[a]}"


class Series:
    """Coefficients of u^e for e < prec, as a dict of the nonzero ones."""

    def __init__(self, field: RefField, coeffs: dict[int, int], prec: int):
        self.f = field
        self.prec = prec
        self.coeffs = {e: c for e, c in coeffs.items() if c and e < prec}

    def __add__(self, other: "Series") -> "Series":
        add = self.f.add_t
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = add[out.get(e, 0)][c]
        return Series(self.f, out, min(self.prec, other.prec))

    def __mul__(self, other: "Series") -> "Series":
        # both factors are exact below their horizons and have valuation >= 0
        prec = min(self.prec, other.prec)
        add, mul = self.f.add_t, self.f.mul_t
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = add[out.get(e, 0)][mul[c1][c2]]
        return Series(self.f, out, prec)

    def scale(self, c: int) -> "Series":
        mul = self.f.mul_t
        return Series(self.f, {e: mul[c][x] for e, x in self.coeffs.items()}, self.prec)

    def text_terms(self) -> dict[int, str]:
        return {e: self.f.fmt(c) for e, c in self.coeffs.items()}


def _one(field: RefField, prec: int) -> Series:
    return Series(field, {0: 1}, prec)


def _pow(x: Series, n: int) -> Series:
    out = _one(x.f, x.prec)
    for _ in range(n):
        out = out * x
    return out


def carlitz_power_sum(field: RefField, s: int, d: int, eps: int, prec: int) -> Series:
    """S_d((eps); (s)) below u^prec by Carlitz's closed form; needs s <= q."""
    q = field.q
    if not 1 <= s <= q:
        raise ValueError(f"closed form needs 1 <= s <= q, got s={s}, q={q}")
    prod = _one(field, prec)
    for i in range(1, d + 1):
        Q = q**i
        prod = prod * Series(field, {Q + k * (Q - 1): 1 for k in range(prec)}, prec)
    sign = field.residue(-1 if (d * s) % 2 else 1)
    return _pow(prod, s).scale(field.mul_t[field.pow(eps, d)][sign])


def carlitz_zeta(field: RefField, s: int, eps: int, prec: int) -> Series:
    """sum_{d >= 0} S_d((eps); (s)) below u^prec; the d-th summand has
    valuation s*(q + ... + q^d), so the sum stops once that reaches prec."""
    out = _one(field, prec)
    d, val = 1, s * field.q
    while val < prec:
        out = out + carlitz_power_sum(field, s, d, eps, prec)
        d += 1
        val += s * field.q**d
    return out


def carlitz_power_sum_lt(field: RefField, s: int, d: int, eps: int, prec: int) -> Series:
    """S_{<d} = sum of S_m for 0 <= m < d."""
    out = Series(field, {}, prec)
    for m in range(d):
        out = out + (_one(field, prec) if m == 0 else carlitz_power_sum(field, s, m, eps, prec))
    return out


def brute_power_sum(field: RefField, s: int, d: int, prec: int) -> Series:
    """S_d((1); (s)) below u^prec by summing 1/a^s over every monic a of
    degree d: a = theta^d (1 + h(u)) with h = sum_t c_(d-t) u^t, so
    1/a^s = u^(ds) (1 + h)^(-s), inverted as a power series."""
    add, mul, neg = field.add_t, field.mul_t, field.neg_t
    width = prec - d * s
    total = Series(field, {}, prec)
    if width <= 0:
        return total
    for low in itertools.product(range(field.q), repeat=d):
        # coefficients c_0 .. c_(d-1); h_t = c_(d-t)
        h = {t: low[d - t] for t in range(1, d + 1) if low[d - t]}
        base = _pow(Series(field, {0: 1, **h}, width), s)
        inv = [0] * width
        inv[0] = 1
        for m in range(1, width):
            acc = 0
            for t, bt in base.coeffs.items():
                if 0 < t <= m:
                    acc = add[acc][mul[bt][inv[m - t]]]
            inv[m] = neg[acc]
        total = total + Series(field, {d * s + m: c for m, c in enumerate(inv)}, prec)
    return total


# -- the program's series text ---------------------------------------------------

_TERM = re.compile(r"^(?:(g\^\d+)\*?)?(?:u(?:\^\(?(-?\d+)\)?)?)?$")


def read_series_text(text: str) -> tuple[dict[int, str], int]:
    """Read ``1 + g^1*u^3 + u^5 + O(u^8)`` into ({0: 'g^0', 3: 'g^1',
    5: 'g^0'}, 8).  Coefficients stay in their printed ``g^j`` form."""
    terms: dict[int, str] = {}
    prec = None
    for raw in text.strip().split(" + "):
        if raw.startswith("O(u"):
            inner = raw[2:-1]
            prec = 1 if inner == "u" else int(inner[2:].strip("()"))
            continue
        if raw == "0":
            continue
        if raw == "1":
            terms[0] = "g^0"
            continue
        m = _TERM.match(raw)
        if m is None or not raw:
            raise ValueError(f"unreadable series term {raw!r}")
        coeff = m.group(1) or "g^0"
        if "u" in raw:
            exp = 1 if m.group(2) is None else int(m.group(2))
        else:
            exp = 0
        if exp in terms:
            raise ValueError(f"exponent {exp} printed twice in {text!r}")
        terms[exp] = coeff
    if prec is None:
        raise ValueError(f"series text without a precision marker: {text!r}")
    return terms, prec


def nonvacuous(terms: dict[int, str]) -> bool:
    """True when the window holds a nonzero coefficient past u^0."""
    return any(e > 0 for e in terms)
