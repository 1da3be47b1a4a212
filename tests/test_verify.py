import dataclasses
import hashlib
import sys

import pytest

from amzv import (
    check_algebra,
    check_coalgebra,
    check_coproduct_oracle,
    check_hopf,
    check_zeta_homomorphism,
    random_element,
    word_weight,
)
from amzv import Element, coproduct, faults, parse_element, parse_laurent, parse_word
from amzv.verify import CheckReport, Rng

from conftest import get_spec


# -- rng ------------------------------------------------------------------------


def test_rng_reference_stream():
    # first outputs of the documented generator for seed 0
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_rng_determinism_and_split():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c, d = Rng(7).split(), Rng(7).split()
    assert c.next_u64() == d.next_u64()
    with pytest.raises(ValueError):
        Rng(1).below(0)


def test_random_element_determinism(spec_q3):
    e1 = random_element(Rng(99), 4, 3, spec_q3)
    e2 = random_element(Rng(99), 4, 3, spec_q3)
    assert e1 == e2


def test_random_element_bounds(spec_q3):
    rng = Rng(123)
    for _ in range(50):
        e = random_element(rng, 3, 2, spec_q3)
        assert e.weights() <= {1, 2, 3}
        # colliding draws may cancel, so the term count is only bounded above
        assert len(e.terms) <= 2
    single = random_element(Rng(5), 1, 1, spec_q3)
    (w,) = single.terms
    assert word_weight(w) == 1 and len(w) == 1


# -- reports -----------------------------------------------------------------------


def _strip_time(rep: CheckReport):
    d = dataclasses.asdict(rep)
    d.pop("millis")
    return d


def test_reports_reproducible(spec_q2):
    a = check_algebra(spec_q2, 4)
    b = check_algebra(spec_q2, 4)
    assert _strip_time(a) == _strip_time(b)
    za = check_zeta_homomorphism(spec_q2, d_max=1, max_weight=2, prec=10,
                                 trials=5, seed=11, zeta_prec=8, chen_rs=3)
    zb = check_zeta_homomorphism(spec_q2, d_max=1, max_weight=2, prec=10,
                                 trials=5, seed=11, zeta_prec=8, chen_rs=3)
    assert _strip_time(za) == _strip_time(zb)


def test_expect_pass_counts_one_instance():
    rep = CheckReport("thm-x", 3, 2, {})
    rep.expect(True, "family", u=(), n=1)
    assert (rep.instances, rep.failures, rep.passed) == (1, [], True)


def test_expect_failure_renders_each_value_kind(spec_q3):
    spec = spec_q3
    word = parse_word("x[2,1]x[1,0]", spec)
    rep = CheckReport("thm-x", 3, 2, {})
    rep.expect(
        False, "family",
        empty=(),
        word=word,
        element=parse_element("g^1*x[2,0] + x[1,1]", spec),
        pair=coproduct(parse_element("x[1,1]", spec)),
        zero=Element.zero(spec),
        series=parse_laurent("1 + g^1*u^2 + O(u^5)", spec),
        unit=spec.g,
        nought=spec.zero,
        count=7,
    )
    assert rep.instances == 1
    assert rep.failures == [
        "family empty=1 word=x[2,1]x[1,0] element=x[1,1] + g^1*x[2,0] "
        "pair=1 ⊗ x[1,1] + x[1,1] ⊗ 1 zero=0 series=1 + g^1*u^2 + O(u^5) "
        "unit=g^1 nought=0 count=7"
    ]
    assert not rep.passed


def test_machine_line_shape(spec_q2):
    rep = check_coproduct_oracle(spec_q2, max_n=4, table_n=4, word_weight_bound=3)
    fields = rep.machine_line().split("\t")
    assert len(fields) == 6
    assert fields[0] == rep.theorem_id
    assert fields[1] == "2"
    assert fields[4] == "0"


def test_text_block_pass_and_fail(spec_q3):
    rep = check_algebra(spec_q3, 3)
    assert rep.text_block().startswith("PASS")
    with faults.inject_fault(faults.DELTA_CORRUPT, spec_q3):
        bad = check_algebra(spec_q3, 4)
    assert bad.text_block().startswith("FAIL")
    assert "counterexample" in bad.text_block()


# -- the checks themselves at small bounds ---------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_checks_pass_small(q):
    spec = get_spec(q)
    assert check_algebra(spec, 5).passed
    assert check_coalgebra(spec, 4).passed
    assert check_hopf(spec, 4).passed
    assert check_coproduct_oracle(spec, max_n=5, table_n=8, word_weight_bound=4).passed


def test_checks_pass_q4_small(spec_q4):
    assert check_algebra(spec_q4, 4).passed
    assert check_coalgebra(spec_q4, 4).passed


# -- negative controls --------------------------------------------------------------------


def test_delta_corruption_trips_algebra(spec_q3):
    with faults.inject_fault(faults.DELTA_CORRUPT, spec_q3):
        rep = check_algebra(spec_q3, 4)
    assert rep.failures
    # counterexamples render both sides
    assert any("lhs=" in f and "rhs=" in f for f in rep.failures)
    assert check_algebra(spec_q3, 4).passed


def test_dropped_unit_tensor_trips_coalgebra(spec_q3):
    with faults.inject_fault(faults.DROP_UNIT_TENSOR, spec_q3):
        rep = check_coalgebra(spec_q3, 3)
    assert rep.failures
    assert any(f.startswith(("counit", "unit-tensorand")) for f in rep.failures)
    assert check_coalgebra(spec_q3, 3).passed


def test_antipode_sign_trips_hopf(spec_q3):
    with faults.inject_fault(faults.ANTIPODE_SIGN, spec_q3):
        rep = check_hopf(spec_q3, 3)
    assert rep.failures
    assert any(f.startswith("antipode") for f in rep.failures)
    assert check_hopf(spec_q3, 3).passed


# mode -> (tripped check, instances, failures, SHA-256 of the failure lines),
# recorded at q=3 before the fault switches moved out of the algebra code
FAULT_PINS = {
    faults.DELTA_CORRUPT: (
        lambda spec: check_algebra(spec, 4), 792, 128,
        "54befe2874955afe06f87714d01d5f3a1530249aef7e2d6ed30deb0c5c035427",
    ),
    faults.DROP_UNIT_TENSOR: (
        lambda spec: check_coalgebra(spec, 3), 215, 83,
        "ef48bb414b92b0535ef93a41cd4738b3f5ebc15e2cfc6ac0f6f7fdc863ce211d",
    ),
    faults.ANTIPODE_SIGN: (
        lambda spec: check_hopf(spec, 3), 102, 56,
        "393ab70cd406c795c7b69af102b3a4a652dc738af7fbd3b0d4113a6a394498c2",
    ),
}


@pytest.mark.parametrize("mode", faults.ALL_MODES)
def test_negative_control_reports_are_pinned(mode, spec_q3):
    check, instances, failures, digest = FAULT_PINS[mode]
    with faults.inject_fault(mode, spec_q3):
        rep = check(spec_q3)
    body = "".join(f + "\n" for f in rep.failures)
    assert (rep.instances, len(rep.failures)) == (instances, failures)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
    assert check(spec_q3).passed


@pytest.mark.parametrize("q", [2, 4])
def test_antipode_sign_is_a_no_op_in_characteristic_two(q):
    # the flipped sign is -1 = +1 here, so the control cannot trip
    spec = get_spec(q)
    with faults.inject_fault(faults.ANTIPODE_SIGN, spec):
        assert check_hopf(spec, 3).passed


def _amzv_bindings():
    return {
        (modname, attr): obj
        for modname, m in list(sys.modules.items())
        if m is not None and (modname == "amzv" or modname.startswith("amzv."))
        for attr, obj in vars(m).items()
    }


def _rebound(before, now):
    return sorted(k for k, obj in before.items() if now.get(k) is not obj)


@pytest.mark.parametrize("mode", faults.ALL_MODES)
def test_inject_fault_restores_every_name(mode, spec_q3):
    before = _amzv_bindings()
    with faults.inject_fault(mode, spec_q3):
        during = _amzv_bindings()
    assert ("amzv.coalgebra" if mode != faults.DELTA_CORRUPT else "amzv.products") in {
        modname for modname, _ in _rebound(before, during)
    }
    assert _rebound(before, _amzv_bindings()) == []
    with pytest.raises(RuntimeError, match="inside the block"):
        with faults.inject_fault(mode, spec_q3):
            assert _rebound(before, _amzv_bindings())
            raise RuntimeError("inside the block")
    assert _rebound(before, _amzv_bindings()) == []


def test_fault_requires_known_mode(spec_q3):
    with pytest.raises(ValueError):
        with faults.inject_fault("no-such-mode", spec_q3):
            pass
