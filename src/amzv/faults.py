"""Deliberate-fault switches for negative controls.

The verification harness must be able to demonstrate that it catches broken
algebra, so three corruptions can be switched on, each tripping at least one
check suite:

* ``DELTA_CORRUPT``   - the overlap coefficient D(1,2,2) is bumped by one
* ``DROP_UNIT_TENSOR`` - the ``1 (x) u`` term of every coproduct is dropped
* ``ANTIPODE_SIGN``   - the leading sign of the antipode recursion is
  flipped, so S(u) gains 2u.  In characteristic 2, -1 = +1 and this control
  is a no-op: ``check_hopf`` reports no failures at q = 2 or q = 4.

The algebra code carries no trace of them.  Each switch wraps the private
cores ``products._delta``, ``coalgebra._coproduct_letter`` and
``_coproduct_word``, or ``coalgebra._antipode_word``, and acts on the field
index or zero-free index map it returns.  :func:`inject_fault`
rebinds each one in the module that defines it.  No other module imports
it, and the recursions and the public entry points look it up there at call
time, so every caller sees the corruption.  On exit, also when the
block raises, the originals are bound again.  The rebinding is process-wide:
nothing else should use the package during the block.  The field's memo
caches are cleared on both edges so corrupted values cannot mix with clean
ones.  These are test-only hooks; the CLI never exposes them.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import coalgebra, products
from .words import EMPTY, accumulate

DELTA_CORRUPT = "delta-corrupt"
DROP_UNIT_TENSOR = "drop-unit-tensor"
ANTIPODE_SIGN = "antipode-sign"

ALL_MODES = (DELTA_CORRUPT, DROP_UNIT_TENSOR, ANTIPODE_SIGN)


def _bump_delta(delta):
    def corrupt(spec, r, s, i):
        val = delta(spec, r, s, i)
        return spec.idx_ops[0][val][1] if (r, s, i) == (1, 2, 2) else val
    return corrupt


def _drop_unit(t: dict, u) -> dict:
    """``t`` without its ``1 (x) u`` term; Δ(1) = 1 (x) 1 is kept."""
    return {k: c for k, c in t.items() if k != (EMPTY, u)} if u else t


def _plus_twice(spec, s: dict, u) -> dict:
    """A copy of ``s`` plus 2u; ``s`` itself where 2 = 0 or u = 1."""
    two = spec.residue(2).idx
    return accumulate(spec, dict(s), {u: 1}, two) if u and two else s


# mode -> (module defining the private core, its name, corrupting wrapper of it)
_WRAPPERS = {
    DELTA_CORRUPT: [(products, "_delta", _bump_delta)],
    DROP_UNIT_TENSOR: [
        (coalgebra, "_coproduct_letter", lambda f: lambda spec, x: _drop_unit(f(spec, x), (x,))),
        (coalgebra, "_coproduct_word", lambda f: lambda spec, u: _drop_unit(f(spec, u), u)),
    ],
    ANTIPODE_SIGN: [
        (coalgebra, "_antipode_word", lambda f: lambda spec, u: _plus_twice(spec, f(spec, u), u)),
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
    undo: list = []
    try:
        for module, name, wrap in _WRAPPERS[mode]:
            orig = getattr(module, name)
            undo.append((module, name, orig))
            setattr(module, name, wrap(orig))
        yield
    finally:
        for module, name, orig in reversed(undo):
            setattr(module, name, orig)
        for spec in specs:
            spec.clear_memos()
