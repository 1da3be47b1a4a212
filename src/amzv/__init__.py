"""Shuffle Hopf algebra of alternating-character words over F_q, with exact
truncated numerics over F_q[theta] and a theorem verification harness.

Importing the package loads none of its submodules.  Each public name, and
each submodule name, is looked up in ``_HOME`` on first access (PEP 562),
its submodule is imported then, and the value is kept in the package's
globals, so later lookups are plain attribute reads.  A process that never
touches ``zeta`` or ``verify`` never compiles them.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "ff": ("BudgetExceededError", "FieldElem", "FieldSpec", "field_from_q", "field_make"),
    "words": (
        "Element",
        "Letter",
        "TensorElement",
        "basis_words",
        "format_element",
        "format_tensor",
        "format_word",
        "letter",
        "parse_element",
        "parse_word",
        "word_weight",
    ),
    "products": (
        "binom_mod_p",
        "bracket",
        "delta_coeff",
        "diamond",
        "horizontal",
        "shuffle",
        "triangle",
    ),
    "coalgebra": (
        "antipode",
        "coproduct",
        "coproduct_letter",
        "coproduct_mzv_recursive",
        "counit",
        "tensor_shuffle",
    ),
    "zeta": (
        "Laurent",
        "Poly",
        "format_laurent",
        "laurent_inv_pow",
        "monic_enum",
        "parse_laurent",
        "power_sum_d",
        "power_sum_lt",
        "power_sum_lt_element",
        "word_to_array",
        "zeta_trunc",
    ),
    "verify": (
        "CheckReport",
        "Rng",
        "check_algebra",
        "check_coalgebra",
        "check_coproduct_oracle",
        "check_hopf",
        "check_zeta_homomorphism",
        "random_element",
        "run_default_matrix",
    ),
}

# every public name and submodule name -> the submodule it comes from
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)}
__all__ = sorted(_HOME)
# reachable as attributes, but not exported by ``from amzv import *``
_HOME.update(cli="cli", faults="faults")
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
