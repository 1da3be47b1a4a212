"""Frozen canonical text of the word algebra.

For every q in the grid, the canonical text of ``shuffle``, ``diamond`` and
``triangle`` on every pair of basis words of total weight at most 5, and of
``coproduct`` and ``antipode`` on every word of weight at most 5 (the empty
word included), is hashed and compared against digests recorded before the
word algebra moved to one sparse-combination type and one accumulation
kernel.  A few lines are also kept in full, so a mismatch there shows the
text itself.
"""

import hashlib

import pytest

from amzv import (
    Element,
    antipode,
    basis_words,
    coproduct,
    diamond,
    field_from_q,
    format_element,
    format_tensor,
    format_word,
    shuffle,
    triangle,
)

MAX_WEIGHT = 5

DIGESTS = {
    2: "5811fdc62417a96fc5e299b16868a0a2411e429cf28d502ea1a51b5161cd9c8f",
    3: "0aae42b85a29fefc24075cfc4295da8995c81089e38bb239125c38453975f31f",
    4: "575d7a3a70b58764a03f1eb9369baef6d8bb23d677433ad8bf0f531f6784b049",
}

SPOT = [
    "q=2 diamond x[1,0] x[2,0]: x[3,0] + x[2,0]x[1,0]",
    "q=3 shuffle x[1,1] x[1,1]: x[2,0] + g^1*x[1,1]x[1,1]",
    "q=2 coproduct x[3,0]: 1 ⊗ x[3,0] + x[2,0] ⊗ x[1,0] + x[3,0] ⊗ 1",
    "q=3 triangle x[1,0] x[2,1]: x[1,0]x[2,1]",
    "q=4 antipode x[1,0]x[1,1]: x[2,1] + x[1,1]x[1,0]",
]


def golden_lines(q):
    spec = field_from_q(q)
    by_weight = [basis_words(w, spec) for w in range(MAX_WEIGHT + 1)]
    lines = []
    for wa in range(1, MAX_WEIGHT):
        for wb in range(1, MAX_WEIGHT - wa + 1):
            for a in by_weight[wa]:
                ea, ta = Element.from_word(spec, a), format_word(a, spec)
                for b in by_weight[wb]:
                    eb, tb = Element.from_word(spec, b), format_word(b, spec)
                    for name, op in (("shuffle", shuffle), ("diamond", diamond),
                                     ("triangle", triangle)):
                        lines.append(f"q={q} {name} {ta} {tb}: {format_element(op(ea, eb))}")
    for words in by_weight:
        for u in words:
            eu, tu = Element.from_word(spec, u), format_word(u, spec)
            lines.append(f"q={q} coproduct {tu}: {format_tensor(coproduct(eu))}")
            lines.append(f"q={q} antipode {tu}: {format_element(antipode(eu))}")
    return lines


@pytest.mark.parametrize("q", sorted(DIGESTS))
def test_canonical_text_is_frozen(q):
    lines = golden_lines(q)
    for spot in SPOT:
        if spot.startswith(f"q={q} "):
            assert spot in lines
    body = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(body.encode()).hexdigest() == DIGESTS[q]
