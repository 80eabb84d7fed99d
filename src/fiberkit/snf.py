"""Exact integer matrix tools: the Smith normal form and the extended gcd.

``smith_normal_form`` returns the invariant factors only, not unimodular
transforms that reach them: ``abelianize`` reads nothing but the diagonal,
so each row and column operation is applied and then forgotten.  Everything
works on plain lists of Python ints, so there is no overflow.
"""

from __future__ import annotations

from math import gcd

__all__ = ["smith_normal_form", "xgcd"]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b) >= 0`` and ``s*a + t*b = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """The diagonal of the Smith normal form over Z: ``min(rows, cols)``
    entries, nonnegative, each dividing the next, zeros last.

    Each pass pivots on a least nonzero ``|entry|`` and reduces its column,
    then its row, by floor division; a nonzero remainder is smaller than
    the pivot and becomes the next pivot, so the passes terminate.

    >>> smith_normal_form([[2, 0], [0, 3]])
    [1, 6]
    >>> smith_normal_form([])
    []
    """
    a = [list(map(int, row)) for row in matrix]
    size = min(len(a), len(a[0])) if a else 0
    diag = []
    while entries := [
        (abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v
    ]:
        _, pi, pj = min(entries)
        prow = a[pi]
        pivot = prow[pj]
        clear = True  # until a remainder is left in the pivot's column or row
        for i, row in enumerate(a):
            if i != pi and row[pj]:
                q = row[pj] // pivot
                for k, v in enumerate(prow):
                    row[k] -= q * v
                clear = clear and not row[pj]
        for j, v in enumerate(prow):
            if j != pj and v:
                q = v // pivot
                for row in a:
                    row[j] -= q * row[pj]
                clear = clear and not prow[j]
        if clear:
            diag.append(abs(pivot))
            del a[pi]
            for row in a:
                del row[pj]
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            g = gcd(diag[s], diag[t])
            diag[s], diag[t] = g, diag[s] // g * diag[t]
    return diag + [0] * (size - len(diag))
