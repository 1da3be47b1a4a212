"""Frozen canonical text of the numeric layer.

For every q in the grid, the ``format_laurent`` text of ``zeta_trunc``,
``power_sum_d`` and ``power_sum_lt`` on a fixed set of words, degrees and
precisions is hashed and compared against digests recorded before the series
layer moved to index-coded coefficients.  A few lines are also kept in full,
so a mismatch there shows the text itself.
"""

import hashlib

import pytest

from amzv import (
    field_from_q,
    format_laurent,
    parse_element,
    parse_word,
    power_sum_d,
    power_sum_lt,
    word_to_array,
    zeta_trunc,
)

# q -> (zeta precision, power-sum precision, largest power-sum degree)
GRID = {2: (24, 24, 3), 3: (18, 20, 2), 4: (15, 18, 2), 5: (13, 16, 2), 9: (10, 16, 1)}

DIGESTS = {
    2: "b165b1e3a1243238b0cc793007fe2be38f112b86681f2e40218626df996cf881",
    3: "70a4ea1b115d3a8bcacaf4b52445329ea5880cbd7a887fb67504f16ebd336745",
    4: "577dfd142829b924e4b6236c2fe5e7118c397f6221282aea567819f67847411b",
    5: "523bec111df365fdb6a22b83f7964a6b7301721c836eeb8f30f8f1aeee1e5262",
    9: "f556857ed89a9a1a3de9d7397909b611a6f0596e846a135667e48c9f80ecea70",
}

SPOT = [
    "q=2 zeta x[1,0] prec=24: 1 + u^2 + u^3 + u^4 + u^5 + u^9 + u^10 + u^11 + u^14"
    " + u^17 + u^20 + u^21 + u^22 + O(u^24)",
    "q=4 zeta x[1,0] + g^1*x[2,2] prec=15: g^2 + u^4 + u^7 + u^8 + u^10 + u^13 + u^14 + O(u^15)",
    "q=9 S_d x[1,7] d=1 prec=16: g^3*u^9 + O(u^16)",
]


def golden_lines(q):
    zprec, pprec, dmax = GRID[q]
    spec = field_from_q(q)
    words = []
    for j in sorted({0, q - 2}):
        words += [f"x[1,{j}]", f"x[2,{j}]", f"x[3,{j}]", f"x[1,0]x[1,{j}]",
                  f"x[2,{j}]x[1,0]", f"x[1,{j}]x[2,0]x[1,0]"]
    elems = words + ["x[1,0] + x[2,0]" if q == 2 else f"x[1,0] + g^1*x[2,{q - 2}]"]
    lines = []
    for text in elems:
        z = zeta_trunc(parse_element(text, spec), zprec)
        lines.append(f"q={q} zeta {text} prec={zprec}: {format_laurent(z)}")
    for text in words:
        arr = word_to_array(parse_word(text, spec))
        for d in range(dmax + 1):
            sd = format_laurent(power_sum_d(arr, d, pprec))
            slt = format_laurent(power_sum_lt(arr, d, pprec))
            lines.append(f"q={q} S_d {text} d={d} prec={pprec}: {sd}")
            lines.append(f"q={q} S_<d {text} d={d} prec={pprec}: {slt}")
    return lines


@pytest.mark.parametrize("q", sorted(GRID))
def test_canonical_text_is_frozen(q):
    lines = golden_lines(q)
    for spot in SPOT:
        if spot.startswith(f"q={q} "):
            assert spot in lines
    body = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(body.encode()).hexdigest() == DIGESTS[q]
