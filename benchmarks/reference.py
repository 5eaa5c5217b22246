"""Plain-Fraction reference arithmetic for the benchmark's correctness checks.

Matrices here are lists of lists of ``fractions.Fraction`` and vectors are
lists. Nothing in this module uses ``dilatekit``, so an error in the
package's matrix kernel cannot hide itself by also corrupting the value it
is checked against.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value) -> Fraction:
    """A wire-format rational (int or "p/q" string) or Fraction."""
    return Fraction(value)


def mat(rows) -> list[list[Fraction]]:
    return [[rat(x) for x in row] for row in rows]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def matmul(a, b) -> list[list[Fraction]]:
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("shapes do not conform")
    cols = len(b[0])
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def matvec(a, x) -> list[Fraction]:
    return [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a]


def power_apply(a, n: int, x) -> list[Fraction]:
    """a^n x by n matrix-vector products."""
    x = list(x)
    for _ in range(n):
        x = matvec(a, x)
    return x


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def neg(a) -> list[list[Fraction]]:
    return [[-x for x in row] for row in a]


def add(a, b) -> list[list[Fraction]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a) -> list[list[Fraction]]:
    return [[c * x for x in row] for row in a]


def block(grid) -> list[list[Fraction]]:
    """Assemble a matrix from a grid of conforming blocks."""
    out = []
    for row in grid:
        for r in range(len(row[0])):
            out.append([x for b in row for x in b[r]])
    return out


def inverse(a) -> list[list[Fraction]]:
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    m = [list(row) + ident for row, ident in zip(a, identity(n))]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[pivot] = m[pivot], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]
