"""What a fresh interpreter loads: ``import amzv`` loads no submodule, and
``amzv.cli`` loads the word algebra only, so a request compiles ``zeta``
and ``verify`` only when it uses them.  The package still resolves every
name it exports, and the negative controls stay safe when a module is first
loaded inside a fault block.

Each case runs in its own interpreter, started with ``-S`` so that no site
hook has loaded a module already; the source directory is put on the path
by hand.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "amzv").glob("*.py") if p.stem != "__init__")

# ``amzv.__all__`` when the package imported every submodule eagerly
EXPORTED = [
    "BudgetExceededError", "CheckReport", "Element", "FieldElem", "FieldSpec", "Laurent",
    "Letter", "Poly", "Rng", "TensorElement", "antipode", "basis_words", "binom_mod_p",
    "bracket", "check_algebra", "check_coalgebra", "check_coproduct_oracle", "check_hopf",
    "check_zeta_homomorphism", "coalgebra", "concat",
    "coproduct", "coproduct_letter", "coproduct_mzv_recursive", "counit", "delta_coeff",
    "diamond", "ff", "field_from_q", "field_make", "format_element", "format_laurent",
    "format_tensor", "format_word", "horizontal", "laurent_inv_pow", "letter", "monic_enum",
    "parse_element", "parse_laurent", "parse_word", "power_sum_d", "power_sum_lt",
    "power_sum_lt_element", "products", "random_element", "run_default_matrix", "shuffle",
    "tensor_shuffle", "triangle", "verify", "word_to_array", "word_weight", "words", "zeta",
    "zeta_trunc",
]

HEAVY = ("amzv.zeta", "amzv.verify", "dataclasses")


def run_fresh(body: str) -> str:
    """Run ``body`` in a fresh interpreter with ``amzv`` importable; its
    stdout."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(after: str) -> set[str]:
    """Which of ``HEAVY`` are loaded once ``after`` has run."""
    out = run_fresh(f"{after}\nprint('loaded:', *[m for m in {HEAVY!r} if m in sys.modules])")
    return set(out.splitlines()[-1].split()[1:])


def test_the_interpreter_starts_without_them():
    assert loaded("") == set()


def test_import_loads_no_submodule():
    out = run_fresh("import amzv\nprint(*sorted(m for m in sys.modules if m.startswith('amzv')))")
    assert out.split() == ["amzv"]


def test_a_word_request_loads_neither_zeta_nor_verify():
    request = ("import amzv, amzv.cli\n"
               "assert amzv.cli.main(['shuffle', '--q', '3', 'x[1,0]', 'x[1,1]']) == 0")
    assert loaded(request) == set()


def test_a_zeta_request_loads_zeta_but_not_verify():
    request = ("import amzv, amzv.cli\n"
               "assert amzv.cli.main(['zeta', '--q', '2', '--prec', '6', 'x[1,0]']) == 0")
    assert loaded(request) == {"amzv.zeta"}


def test_a_basis_request_loads_neither_zeta_nor_verify():
    request = ("import amzv, amzv.cli\n"
               "assert amzv.cli.main(['basis', '--q', '3', '--weight-max', '2']) == 0\n"
               "assert amzv.cli.main(['basis', '--q', '64', '--weight-max', '4']) == 1")
    assert loaded(request) == set()


def test_a_budget_error_exits_1_without_loading_verify():
    request = ("import amzv.cli\n"
               "assert amzv.cli.main(['powsum', '--q', '32', '--d', '4', '--prec', '9', "
               "'x[1,0]']) == 1")
    assert loaded(request) == {"amzv.zeta"}


def test_every_exported_name_and_submodule_resolves():
    body = f"""
import importlib
import amzv
assert sorted(amzv.__all__) == {sorted(EXPORTED)!r}, amzv.__all__
for name in {EXPORTED!r}:
    getattr(amzv, name)
for mod in {SUBMODULES!r}:
    assert getattr(amzv, mod) is sys.modules["amzv." + mod], mod
    assert getattr(amzv, mod) is importlib.import_module("amzv." + mod), mod
assert amzv.zeta_trunc is amzv.zeta.zeta_trunc
assert amzv.BudgetExceededError is amzv.zeta.BudgetExceededError
namespace = {{}}
exec("from amzv import *", namespace)
assert sorted(set(namespace) - {{"__builtins__"}}) == sorted(amzv.__all__)
assert set(amzv.__all__) <= set(dir(amzv))
try:
    amzv.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("amzv.no_such_name resolved")
print("ok")
"""
    assert run_fresh(body) == "ok\n"


@pytest.mark.parametrize("first", ["check_algebra", "verify"])
def test_a_module_first_loaded_in_a_fault_block_keeps_no_corrupted_name(first):
    # a fault rebinds one private core in its own module, so a module loaded
    # inside the block sees the fault through the clean public name
    body = f"""
import amzv
from amzv.faults import DELTA_CORRUPT, inject_fault

def bindings():
    return {{(n, k): v for n, m in list(sys.modules.items()) if n.startswith("amzv")
            for k, v in vars(m).items()}}

spec = amzv.field_from_q(3)
clean = amzv.products.delta_coeff(1, 2, 2, spec)
before = bindings()
with inject_fault(DELTA_CORRUPT, spec):
    getattr(amzv, {first!r})
    assert amzv.verify.delta_coeff(1, 2, 2, spec) == clean + spec.one
    assert amzv.verify.delta_coeff is amzv.products.delta_coeff
after = bindings()
assert [key for key, v in before.items() if after[key] is not v] == []
assert amzv.verify.delta_coeff is amzv.products.delta_coeff
assert amzv.check_algebra(spec, 3).passed
print("ok")
"""
    assert run_fresh(body) == "ok\n"


# fault mode -> (a call through a public name, its value under the fault,
# given its clean value ``clean``)
SHOWN = {
    "DELTA_CORRUPT": ("amzv.delta_coeff(1, 2, 2, spec)", "clean + spec.one"),
    "DROP_UNIT_TENSOR": ("amzv.coproduct_letter(x)",
                         "clean - amzv.TensorElement.from_pair(spec, (), (x,))"),
    "ANTIPODE_SIGN": ("amzv.antipode(amzv.Element.from_word(spec, (x,)))", "-clean"),
}


@pytest.mark.parametrize("mode", sorted(SHOWN))
def test_a_public_name_first_resolved_in_a_fault_block_shows_the_fault(mode):
    call, faulty = SHOWN[mode]
    body = f"""
import amzv
from amzv.faults import {mode}, inject_fault
spec = amzv.field_from_q(3)
x = amzv.letter(spec, 2, spec.one)
with inject_fault({mode}, spec):
    got = {call}
clean = {call}
assert got == {faulty} and got != clean, (got, clean)
print("ok")
"""
    assert run_fresh(body) == "ok\n"
