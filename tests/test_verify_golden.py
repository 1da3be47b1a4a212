"""Golden reports of the verification harness.

Each pin is the instance count, the failure count and the SHA-256 of the
failure lines of one ``check_*`` report at small bounds.  The reports are
taken on fresh fields for q in {2, 3, 4}, with no fault and under every
``amzv.faults`` mode (the zeta check at q <= 3 only), and under a few
test-local corruptions of names that ``amzv.verify`` imports.  Those
corruptions reach the failure lines that the fault modes never produce, so
every one of the harness's identity families has its line format pinned at
least once.
"""

import functools
import hashlib
import itertools

import pytest

from amzv import faults, field_from_q, verify
from amzv.words import Element

CHECKS = {
    # triples reach weight 4 at q <= 3, so triples of unequal weights pin
    # their order; q = 4 stays lower to keep the test short
    "algebra": lambda spec: verify.check_algebra(spec, 5 if spec.q <= 3 else 4),
    "coalgebra": lambda spec: verify.check_coalgebra(spec, 3),
    "hopf": lambda spec: verify.check_hopf(spec, 3, dim_weight=4),
    "oracle": lambda spec: verify.check_coproduct_oracle(
        spec, max_n=4, table_n=5, word_weight_bound=3),
    "zeta": lambda spec: verify.check_zeta_homomorphism(
        spec, d_max=2, max_weight=2, prec=12, trials=8, seed=11, zeta_prec=8, chen_rs=3,
        chen_d=1, chen_prec=24),
}

# every identity family the harness checks: the first word of a failure line
FAMILIES = {
    "shuffle-comm", "diamond-comm", "shuffle-decomposition", "diamond-head",
    "shuffle-assoc", "diamond-assoc", "triangle-assoc-law", "triangle-diamond-law",
    "horizontal-composition", "horizontal-diamond",
    "coproduct-grading", "unit-tensorand", "counit-left", "counit-right",
    "coassociativity", "coproduct-horizontal", "compatibility", "diamond-coproduct",
    "antipode-left", "antipode-right", "antipode-grading", "antipode-involution",
    "antipode-homomorphism", "dimension",
    "letter-oracle", "delta-table", "word-oracle",
    "powsum-homomorphism", "zeta-homomorphism", "chen",
}


def _pin(rep):
    body = "".join(f + "\n" for f in rep.failures)
    return rep.instances, len(rep.failures), hashlib.sha256(body.encode()).hexdigest()[:16]


def _checks(q):
    return [name for name in CHECKS if name != "zeta" or q <= 3]


# -- no fault and every fault mode --------------------------------------------------

# (q, mode or None, check) -> (instances, failures, digest prefix)
PINS = {
    (2, None, 'algebra'): (256, 0, 'e3b0c44298fc1c14'),
    (2, None, 'coalgebra'): (52, 0, 'e3b0c44298fc1c14'),
    (2, None, 'hopf'): (33, 0, 'e3b0c44298fc1c14'),
    (2, None, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
    (2, None, 'zeta'): (38, 0, 'e3b0c44298fc1c14'),
    (2, faults.DELTA_CORRUPT, 'algebra'): (256, 67, '32c6d7f2c24e7256'),
    (2, faults.DELTA_CORRUPT, 'coalgebra'): (52, 2, '1c0e8fb569e82257'),
    (2, faults.DELTA_CORRUPT, 'hopf'): (33, 1, '1a3ba4109f0bc88f'),
    (2, faults.DELTA_CORRUPT, 'oracle'): (26, 4, '19e2ba993ab71950'),
    (2, faults.DELTA_CORRUPT, 'zeta'): (38, 7, '3be27927195a9f7a'),
    (2, faults.DROP_UNIT_TENSOR, 'algebra'): (256, 0, 'e3b0c44298fc1c14'),
    (2, faults.DROP_UNIT_TENSOR, 'coalgebra'): (52, 22, 'a91425cb72b02155'),
    (2, faults.DROP_UNIT_TENSOR, 'hopf'): (33, 14, 'cea3f09056a7c24f'),
    (2, faults.DROP_UNIT_TENSOR, 'oracle'): (26, 11, 'cde9d0e07f61dda8'),
    (2, faults.DROP_UNIT_TENSOR, 'zeta'): (38, 0, 'e3b0c44298fc1c14'),
    (2, faults.ANTIPODE_SIGN, 'algebra'): (256, 0, 'e3b0c44298fc1c14'),
    (2, faults.ANTIPODE_SIGN, 'coalgebra'): (52, 0, 'e3b0c44298fc1c14'),
    (2, faults.ANTIPODE_SIGN, 'hopf'): (33, 0, 'e3b0c44298fc1c14'),
    (2, faults.ANTIPODE_SIGN, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
    (2, faults.ANTIPODE_SIGN, 'zeta'): (38, 0, 'e3b0c44298fc1c14'),
    (3, None, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (3, None, 'coalgebra'): (215, 0, 'e3b0c44298fc1c14'),
    (3, None, 'hopf'): (98, 0, 'e3b0c44298fc1c14'),
    (3, None, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
    (3, None, 'zeta'): (56, 0, 'e3b0c44298fc1c14'),
    (3, faults.DELTA_CORRUPT, 'algebra'): (3456, 784, '72fc5d58b25d9378'),
    (3, faults.DELTA_CORRUPT, 'coalgebra'): (215, 5, '92db8707df5d285a'),
    (3, faults.DELTA_CORRUPT, 'hopf'): (98, 8, 'ef5383f410b142f6'),
    (3, faults.DELTA_CORRUPT, 'oracle'): (26, 4, '9f2de0222875e2f3'),
    (3, faults.DELTA_CORRUPT, 'zeta'): (56, 8, '1e056469d0eaf50e'),
    (3, faults.DROP_UNIT_TENSOR, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (3, faults.DROP_UNIT_TENSOR, 'coalgebra'): (215, 83, 'ef48bb414b92b053'),
    (3, faults.DROP_UNIT_TENSOR, 'hopf'): (98, 56, 'c570e2caf76c97dd'),
    (3, faults.DROP_UNIT_TENSOR, 'oracle'): (26, 11, '902e688c43eee82a'),
    (3, faults.DROP_UNIT_TENSOR, 'zeta'): (56, 0, 'e3b0c44298fc1c14'),
    (3, faults.ANTIPODE_SIGN, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (3, faults.ANTIPODE_SIGN, 'coalgebra'): (215, 0, 'e3b0c44298fc1c14'),
    (3, faults.ANTIPODE_SIGN, 'hopf'): (98, 56, '393ab70cd406c795'),
    (3, faults.ANTIPODE_SIGN, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
    (3, faults.ANTIPODE_SIGN, 'zeta'): (56, 0, 'e3b0c44298fc1c14'),
    (4, None, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (4, None, 'coalgebra'): (590, 0, 'e3b0c44298fc1c14'),
    (4, None, 'hopf'): (221, 0, 'e3b0c44298fc1c14'),
    (4, None, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
    (4, faults.DELTA_CORRUPT, 'algebra'): (3456, 414, 'bdbe0a201578ae66'),
    (4, faults.DELTA_CORRUPT, 'coalgebra'): (590, 10, '76fecba179bfd989'),
    (4, faults.DELTA_CORRUPT, 'hopf'): (221, 27, '7c7907f4768793ea'),
    (4, faults.DELTA_CORRUPT, 'oracle'): (26, 4, '1f261466f45c0cf1'),
    (4, faults.DROP_UNIT_TENSOR, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (4, faults.DROP_UNIT_TENSOR, 'coalgebra'): (590, 257, '212e6344781dffc3'),
    (4, faults.DROP_UNIT_TENSOR, 'hopf'): (221, 126, '4c1dd3638f168c79'),
    (4, faults.DROP_UNIT_TENSOR, 'oracle'): (26, 11, '15927d1136c9f176'),
    (4, faults.ANTIPODE_SIGN, 'algebra'): (3456, 0, 'e3b0c44298fc1c14'),
    (4, faults.ANTIPODE_SIGN, 'coalgebra'): (590, 0, 'e3b0c44298fc1c14'),
    (4, faults.ANTIPODE_SIGN, 'hopf'): (221, 0, 'e3b0c44298fc1c14'),
    (4, faults.ANTIPODE_SIGN, 'oracle'): (26, 0, 'e3b0c44298fc1c14'),
}

MODES = (None, *faults.ALL_MODES)


@functools.cache
def _reports(q, mode):
    spec = field_from_q(q)
    out = {}
    for name in _checks(q):
        if mode is None:
            out[name] = CHECKS[name](spec)
        else:
            with faults.inject_fault(mode, spec):
                out[name] = CHECKS[name](spec)
    return out


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m or "clean")
@pytest.mark.parametrize("q", [2, 3, 4])
def test_reports_are_pinned(q, mode):
    got = {name: _pin(rep) for name, rep in _reports(q, mode).items()}
    assert got == {name: PINS[(q, mode, name)] for name in _checks(q)}


# -- corruptions of verify's own imports --------------------------------------------


def _plus_right(triangle):
    return lambda a, b: triangle(a, b) + b


def _plus_argument(horizontal):
    return lambda alpha, a: horizontal(alpha, a) + a


def _plus_diagonal(coproduct):
    """Adds u ⊗ u for every nonempty word u of the argument: wrong bidegree."""
    return lambda e: coproduct(e) + Element(e.spec, {(w, w): c for w, c in e.terms.items() if w})


def _plus_one(counit):
    return lambda e: counit(e) + e.spec.one


def _plus_square(antipode):
    """Adds the shuffle square of the argument: wrong weight."""
    return lambda e: antipode(e) + verify.shuffle(e, e)


def _drop_first(iter_basis_words):
    return lambda w, spec: itertools.islice(iter_basis_words(w, spec), 1, None)


# name in amzv.verify -> (corrupting wrapper, q, checks run under it)
CORRUPTIONS = {
    "triangle": (_plus_right, 3, ("algebra",)),
    "horizontal": (_plus_argument, 3, ("algebra", "coalgebra")),
    "coproduct": (_plus_diagonal, 2, ("coalgebra", "hopf", "oracle")),
    "counit": (_plus_one, 3, ("coalgebra", "hopf")),
    "antipode": (_plus_square, 3, ("hopf",)),
    "iter_basis_words": (_drop_first, 2, ("hopf",)),
}

# (corrupted name, check) -> (instances, failures, digest prefix)
CORRUPT_PINS = {
    ('triangle', 'algebra'): (3456, 1296, '59f409f9316fdbe8'),
    ('horizontal', 'algebra'): (3456, 864, '45d4a264b17dc4d6'),
    ('horizontal', 'coalgebra'): (215, 52, '51cbdf09cac7ab53'),
    ('coproduct', 'coalgebra'): (52, 20, '1715580d0e5c517c'),
    ('coproduct', 'hopf'): (33, 14, 'de106b53999a4457'),
    ('coproduct', 'oracle'): (26, 7, '25615103fa200e90'),
    ('counit', 'coalgebra'): (215, 52, 'ad1e0912a099d8c9'),
    ('counit', 'hopf'): (98, 54, 'a8fa56230eabab99'),
    ('antipode', 'hopf'): (98, 92, 'f8f723b4a4471ee8'),
    ('iter_basis_words', 'hopf'): (33, 5, '2a2ac0e29782ec40'),
}


@functools.cache
def _corrupt_reports(name):
    wrap, q, names = CORRUPTIONS[name]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, name, wrap(getattr(verify, name)))
        spec = field_from_q(q)
        return {check: CHECKS[check](spec) for check in names}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_reports_are_pinned(name):
    got = {check: _pin(rep) for check, rep in _corrupt_reports(name).items()}
    assert got == {check: CORRUPT_PINS[(name, check)] for check in CORRUPTIONS[name][2]}


def test_every_family_is_pinned():
    reports = [rep for q in (2, 3, 4) for mode in MODES for rep in _reports(q, mode).values()]
    reports += [rep for name in CORRUPTIONS for rep in _corrupt_reports(name).values()]
    assert {f.split(" ", 1)[0] for rep in reports for f in rep.failures} == FAMILIES
