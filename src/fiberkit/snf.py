"""Exact integer matrix tools: Smith normal form and the extended gcd.

Everything works on plain lists of Python ints, so there is no overflow;
matrices at the scale used here (relator exponent matrices, well under
64x64) are far below any performance concern.
"""

from __future__ import annotations

__all__ = ["smith_normal_form", "xgcd", "identity_matrix"]

Matrix = list[list[int]]


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


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_combine(mat: Matrix, i: int, j: int, s: int, t: int, u: int, v: int):
    """rows (i, j) <- (s*row_i + t*row_j, u*row_i + v*row_j); s*v - t*u = +-1."""
    for k in range(len(mat[0])):
        a, b = mat[i][k], mat[j][k]
        mat[i][k] = s * a + t * b
        mat[j][k] = u * a + v * b


def _col_combine(mat: Matrix, i: int, j: int, s: int, t: int, u: int, v: int):
    for row in mat:
        a, b = row[i], row[j]
        row[i] = s * a + t * b
        row[j] = u * a + v * b


def smith_normal_form(
    matrix: list[list[int]], ncols: int | None = None
) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize over Z: return ``(left, diag, right)`` with
    ``left @ matrix @ right == diag``, both transforms unimodular, and the
    diagonal entries nonnegative with each dividing the next (zeros last).

    Works on a copy; accepts matrices with zero rows or columns (pass
    ``ncols`` so the column count survives an empty row list).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else (ncols or 0)
    a = [list(map(int, row)) for row in matrix]
    left = identity_matrix(m)
    right = identity_matrix(n)

    def pivot_search(t: int):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        return best

    t = 0
    while t < min(m, n):
        found = pivot_search(t)
        if found is None:
            break
        pi, pj, _ = found
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
            left[pi], left[t] = left[t], left[pi]
        if pj != t:
            for row in a:
                row[pj], row[t] = row[t], row[pj]
            for row in right:
                row[pj], row[t] = row[t], row[pj]

        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        # plain elimination keeps the pivot row fixed
                        factor = a[i][t] // a[t][t]
                        _row_combine(a, t, i, 1, 0, -factor, 1)
                        _row_combine(left, t, i, 1, 0, -factor, 1)
                    else:
                        g, s, u = xgcd(a[t][t], a[i][t])
                        alpha, beta = a[t][t] // g, a[i][t] // g
                        # the block [[s, u], [-beta, alpha]] has determinant 1
                        _row_combine(a, t, i, s, u, -beta, alpha)
                        _row_combine(left, t, i, s, u, -beta, alpha)
            for j in range(t + 1, n):
                if a[t][j]:
                    if a[t][j] % a[t][t] == 0:
                        factor = a[t][j] // a[t][t]
                        _col_combine(a, t, j, 1, 0, -factor, 1)
                        _col_combine(right, t, j, 1, 0, -factor, 1)
                    else:
                        g, s, u = xgcd(a[t][t], a[t][j])
                        alpha, beta = a[t][t] // g, a[t][j] // g
                        _col_combine(a, t, j, s, u, -beta, alpha)
                        _col_combine(right, t, j, s, u, -beta, alpha)
            if any(a[i][t] for i in range(t + 1, m)):
                continue  # column ops re-dirtied the pivot column
            stray = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            # fold the offending row into the pivot row; the next gcd pass
            # strictly shrinks |pivot|, so this terminates
            for k in range(n):
                a[t][k] += a[stray][k]
            for k in range(m):
                left[t][k] += left[stray][k]
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            for k in range(n):
                a[i][k] = -a[i][k]
            for k in range(m):
                left[i][k] = -left[i][k]
    return left, a, right
