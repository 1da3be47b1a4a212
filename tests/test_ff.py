import itertools

import pytest

from amzv import ff, field_from_q, field_make
from amzv.ff import MAX_Q, FieldSpec

SMALL_QS = [2, 3, 4, 5, 7, 8, 9]


@pytest.fixture(scope="module", params=SMALL_QS)
def spec(request):
    return field_from_q(request.param)


def test_field_axioms_exhaustive(spec):
    els = spec.elements
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        assert a + spec.zero == a
        assert a * spec.one == a
        assert a + (-a) == spec.zero
        if not a.is_zero():
            assert a * a.inverse() == spec.one


def test_unit_group_order(spec):
    q = spec.q
    for a in spec.elements[1:]:
        assert a ** (q - 1) == spec.one
    x = spec.g
    order = 1
    while not x.is_one():
        x = x * spec.g
        order += 1
    assert order == q - 1


def test_generator_values():
    assert field_make(2).g.coeffs == (1,)
    assert field_make(3).g.coeffs == (2,)
    # with the modulus t^2 + t + 1 the class of t generates F_4
    s4 = field_make(2, 2, (1, 1, 1))
    assert s4.g.coeffs == (0, 1)


def test_f4_arithmetic():
    s = field_make(2, 2, (1, 1, 1))
    g = s.g
    g_plus_1 = s.elements[3]
    assert g_plus_1.coeffs == (1, 1)
    assert g * g == g_plus_1
    assert g.inverse() == g_plus_1
    assert g**3 == s.one
    assert g + g == s.zero


def test_f3_arithmetic():
    s = field_make(3)
    two = s.residue(2)
    assert two + two == s.one
    assert two * two == s.one
    assert two.inverse() == two
    assert two**2 == s.one


def test_pow_edge_cases(spec):
    for a in spec.elements:
        assert a**0 == spec.one
    with pytest.raises(ZeroDivisionError):
        spec.zero ** (-1)
    with pytest.raises(ZeroDivisionError):
        spec.zero.inverse()


def test_exponent_literals(spec):
    seen = set()
    for j in range(spec.q - 1):
        u = spec.unit_from_exp(j)
        assert spec.log(u) == j
        assert spec.format_elem(u) == f"g^{j}"
        assert spec.parse_elem(f"g^{j}") == u
        seen.add(u)
    assert len(seen) == spec.q - 1
    assert spec.parse_elem("0") == spec.zero
    assert spec.parse_elem("1") == spec.one
    assert spec.format_elem(spec.zero) == "0"


def test_residue_literals_prime_field():
    s = field_make(5)
    assert s.parse_elem("3") == s.residue(3)
    # normalized back out to exponent form
    assert s.format_elem(s.residue(3)) in {f"g^{j}" for j in range(4)}


def test_make_errors():
    with pytest.raises(ValueError):
        field_make(4)  # not prime
    with pytest.raises(ValueError):
        field_make(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(3, 4)  # q = 81 > MAX_Q
    with pytest.raises(ValueError):
        field_from_q(6)
    with pytest.raises(ValueError):
        field_from_q(MAX_Q * 2)


def test_spec_mismatch_rejected():
    a = field_make(2).one
    b = field_make(3).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_value_semantics_across_instances():
    s1, s2 = field_make(3), field_make(3)
    assert s1.residue(2) == s2.residue(2)
    assert hash(s1.residue(2)) == hash(s2.residue(2))
    assert s1.residue(2) + s2.residue(2) == s1.one


def test_default_moduli_all_build():
    for q in (4, 8, 9, 16, 25, 27, 32, 49, 64):
        spec = field_from_q(q)
        assert spec.q == q
        assert spec.g ** (q - 1) == spec.one


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _reference_tables(p, k, modulus):
    """The field's index tables built the slow way: all q^2 products as
    reduced polynomial products, inverses by search, and g as the first
    element whose powers, walked in the product table, have order q - 1."""
    q = p**k
    mod = modulus or (0, 1)
    digits = [[v // p**i % p for i in range(k)] for v in range(q)]

    def index(c):
        return sum(x * p**i for i, x in enumerate(c))

    def mulmod(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # cancel t^d by the monic modulus
            lead = prod[d] % p
            for i in range(k + 1):
                prod[d - k + i] -= lead * mod[i]
        return index([x % p for x in prod[:k]])

    add = [[index([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
           for a in range(q)]
    neg = [index([-x % p for x in digits[a]]) for a in range(q)]
    mul = [[mulmod(digits[a], digits[b]) for b in range(q)] for a in range(q)]
    inv = [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]

    def order(a):
        x, n = a, 1
        while x != 1:
            x, n = mul[x][a], n + 1
        return n

    g = next(a for a in range(1, q) if order(a) == q - 1)
    gpow = [1]
    for _ in range(q - 2):
        gpow.append(mul[gpow[-1]][g])
    return add, mul, neg, inv, g, gpow


def _check_against_reference(spec):
    add, mul, neg, inv, g, gpow = _reference_tables(spec.p, spec.k, spec.modulus)
    els = spec.elements
    assert spec.idx_ops == (tuple(map(tuple, add)), tuple(map(tuple, mul)), tuple(neg))
    assert [e.inverse().idx for e in els[1:]] == inv
    assert spec.g.idx == g
    assert [spec.unit_from_exp(j).idx for j in range(spec.q - 1)] == gpow
    assert [(spec.g ** j).idx for j in range(spec.q - 1)] == gpow
    # the FieldElem arithmetic agrees with the int tables it is derived from
    assert [[(a + b).idx for b in els] for a in els] == add
    assert [[(a * b).idx for b in els] for a in els] == mul
    assert [(-a).idx for a in els] == neg


@pytest.mark.parametrize("q", [q for q in range(2, MAX_Q + 1) if _is_prime_power(q)])
def test_tables_match_reference_default_moduli(q):
    _check_against_reference(field_from_q(q))


@pytest.mark.parametrize("p,k,modulus,t_order", [
    (2, 4, (1, 1, 1, 1, 1), 5),  # t^5 = 1 modulo 1 + t + t^2 + t^3 + t^4
    (3, 2, (1, 0, 1), 4),  # t^2 = -1
])
def test_tables_match_reference_when_t_is_not_primitive(p, k, modulus, t_order):
    spec = field_make(p, k, modulus)
    # coordinates read in base p: index p is the class of t
    t = spec.elements[p]
    assert t.coeffs == (0, 1) + (0,) * (k - 2)
    assert t ** t_order == spec.one and spec.g != t
    _check_against_reference(spec)


def test_f64_takes_linearly_many_walk_steps(monkeypatch):
    # every step of the generator walk, and every image of t, is one
    # lookup in an index table that ``_linear_row`` returns
    steps = []
    real = ff._linear_row

    class CountedRow(list):
        def __getitem__(self, i):
            steps.append(1)
            return list.__getitem__(self, i)

    monkeypatch.setattr(ff, "_linear_row", lambda *args: CountedRow(real(*args)))
    spec = field_make(2, 6)
    assert 0 < len(steps) <= 4 * spec.q


def test_prime_field_modulus_is_checked():
    assert field_make(3, 1, (1, 1)).key == field_make(3).key
    assert field_make(5, 1, (7, 6)).key == field_make(5).key
    for bad in ((5, 5, 5), (2,), (1, 2), ()):
        with pytest.raises(ValueError, match="monic of degree k"):
            field_make(3, 1, bad)


def test_spec_rejects_reducible_modulus():
    # t + 1 squares to 0 modulo t^2 + 1 over F_2: its powers never reach 1
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 2, (1, 0, 1))


def _has_factor(p, modulus):
    """Whether some monic polynomial of degree 1 .. k // 2 divides the
    monic ``modulus`` of degree k, found by trial division."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            f = (*low, 1)
            r = list(modulus)
            for i in range(k - d, -1, -1):  # cancel t^(i + d)
                lead = r[i + d]
                for j in range(d + 1):
                    r[i + j] = (r[i + j] - lead * f[j]) % p
            if not any(r[:d]):
                return True
    return False


SMALL_EXTENSIONS = [(p, k) for p in (2, 3, 5, 7) for k in range(2, 7) if p**k <= MAX_Q]


def _irreducible_count(p, k):
    """Gauss's count of the monic irreducibles of degree k over F_p:
    (1/k) * sum over d | k of mu(d) p^(k/d)."""
    def mu(n):
        out, f = 1, 2
        while n > 1:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                out = -out
            f += 1
        return out
    return sum(mu(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


@pytest.mark.parametrize("p,k", SMALL_EXTENSIONS)
def test_every_small_modulus(p, k):
    # every monic modulus is rejected exactly when trial division finds a
    # factor; up to q = 27 each accepted one also builds the reference tables
    accepted = 0
    for low in itertools.product(range(p), repeat=k):
        modulus = (*low, 1)
        if _has_factor(p, modulus):
            with pytest.raises(ValueError, match="modulus is reducible"):
                field_make(p, k, modulus)
            continue
        spec = field_make(p, k, modulus)
        accepted += 1
        if spec.q <= 27:
            _check_against_reference(spec)
        assert spec.g ** (spec.q - 1) == spec.one
    assert accepted == _irreducible_count(p, k)
