"""Deliberate-fault switches for negative controls.

The verification harness must be able to demonstrate that it catches broken
algebra, so three corruptions can be switched on, each tripping at least one
check suite:

* ``DELTA_CORRUPT``   - the overlap coefficient D(1,2,2) is bumped by one
* ``DROP_UNIT_TENSOR`` - the ``1 (x) u`` term of every coproduct is dropped
* ``ANTIPODE_SIGN``   - the leading sign of the antipode recursion is
  flipped, so S(u) gains 2u.  In characteristic 2, -1 = +1 and this control
  is a no-op: ``check_hopf`` reports no failures at q = 2 or q = 4.

The algebra code carries no trace of them.  :func:`inject_fault` rebinds a
corrupting wrapper of ``delta_coeff``, of ``coproduct_letter`` and
``_coproduct_word``, or of ``_antipode_word`` in every ``amzv`` module that
imported the function by name; the recursions look those names up at call
time, so they see the corruption too.  On exit, also when the block raises,
every name is bound to its original again.  The rebinding is process-wide:
nothing else should use the package during the block.  The field's memo
caches are cleared on both edges so corrupted values cannot mix with clean
ones.  These are test-only hooks; the CLI never exposes them.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from . import coalgebra, products
from .words import EMPTY, Element, _element

DELTA_CORRUPT = "delta-corrupt"
DROP_UNIT_TENSOR = "drop-unit-tensor"
ANTIPODE_SIGN = "antipode-sign"

ALL_MODES = (DELTA_CORRUPT, DROP_UNIT_TENSOR, ANTIPODE_SIGN)


def _bump_delta(delta_coeff):
    def corrupt(r, s, i, spec):
        val = delta_coeff(r, s, i, spec)
        return val + spec.one if (r, s, i) == (1, 2, 2) else val
    return corrupt


def _drop_unit(t: Element, u) -> Element:
    """``t`` without its ``1 (x) u`` term; Δ(1) = 1 (x) 1 is kept."""
    return _element(t.spec, {k: c for k, c in t.idx.items() if k != (EMPTY, u)}) if u else t


def _plus_twice(s: Element, u) -> Element:
    return s + Element.from_word(s.spec, u, s.spec.residue(2)) if u else s


# mode -> (module defining the function, its name, corrupting wrapper of it)
_WRAPPERS = {
    DELTA_CORRUPT: [(products, "delta_coeff", _bump_delta)],
    DROP_UNIT_TENSOR: [
        (coalgebra, "coproduct_letter", lambda f: lambda x: _drop_unit(f(x), (x,))),
        (coalgebra, "_coproduct_word", lambda f: lambda spec, u: _drop_unit(f(spec, u), u)),
    ],
    ANTIPODE_SIGN: [
        (coalgebra, "_antipode_word", lambda f: lambda spec, u: _plus_twice(f(spec, u), u)),
    ],
}


@contextmanager
def inject_fault(mode: str, *specs):
    """Corrupt the algebra in one fault mode within a block, flushing caches
    on both edges."""
    if mode not in ALL_MODES:
        raise ValueError(f"unknown fault mode {mode!r}")
    for spec in specs:
        spec.clear_memos()
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "amzv" or n.startswith("amzv."))]
    undo: list = []
    try:
        for module, name, wrap in _WRAPPERS[mode]:
            orig = getattr(module, name)
            corrupt = wrap(orig)
            for m in mods:
                if m.__dict__.get(name) is orig:
                    undo.append((m, name, orig))
                    setattr(m, name, corrupt)
        yield
    finally:
        for m, name, orig in reversed(undo):
            setattr(m, name, orig)
        for spec in specs:
            spec.clear_memos()
