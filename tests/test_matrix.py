import copy
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import (
    DimensionMismatch,
    Mat,
    MatrixError,
    NonSquareMatrix,
    SingularMatrix,
    rref_image_kernel,
)
from dilatekit import matrix
from dilatekit.finsupp import Domain, FsVec
from dilatekit.matrix import as_rat, in_span, span_rank, unit_vec, vec
from dilatekit.seqops import Componentwise, ProjStd, _PowerCache
from dilatekit.serialize import mat_to_json, rat_to_json

from strategies import matrices, square_pairs


def test_as_rat_rejects_floats():
    with pytest.raises(TypeError):
        as_rat(0.5)
    with pytest.raises(TypeError):
        as_rat(True)
    assert as_rat("3/4") == Fraction(3, 4)


def test_product_of_halmos_blocks_is_identity():
    # hand multiplication: rows of the left matrix against columns of the right
    a = Mat([[2, 1], [1, 0]])
    b = Mat([[0, 1], [1, -2]])
    assert a * b == Mat.identity(2)


def test_identity_is_neutral():
    m = Mat([[1, 2, 3], ["1/2", 5, -1]])
    assert Mat.identity(2) * m == m
    assert m * Mat.identity(3) == m


def test_mul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Mat.zeros(2, 3) * Mat.zeros(2, 2)


def test_inverse_two_by_two():
    m = Mat([[2, 1], [1, 1]])
    inv = m.inverse()
    # oracle: the inverse is whatever multiplies back to the identity
    assert m * inv == Mat.identity(2)
    assert inv * m == Mat.identity(2)
    assert inv == Mat([[1, -1], [-1, 2]])


def test_inverse_identity():
    assert Mat.identity(3).inverse() == Mat.identity(3)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        Mat([[1, 1], [1, 1]]).inverse()


def test_inverse_non_square():
    with pytest.raises(NonSquareMatrix):
        Mat.zeros(2, 3).inverse()


def test_image_kernel_nilpotent():
    # rref by hand: [[0,1],[0,0]] has pivot in column 1, free column 0
    image, kernel = rref_image_kernel(Mat([[0, 1], [0, 0]]))
    assert image == [unit_vec(2, 0)]
    assert kernel == [unit_vec(2, 0)]


def test_image_kernel_identity():
    image, kernel = rref_image_kernel(Mat.identity(3))
    assert image == [unit_vec(3, i) for i in range(3)]
    assert kernel == []


def test_image_kernel_zero():
    image, kernel = rref_image_kernel(Mat.zeros(2, 2))
    assert image == []
    assert kernel == [unit_vec(2, 0), unit_vec(2, 1)]


def test_trace_examples():
    assert Mat([[2, 1], [3, 2]]).trace() == 4
    assert Mat.identity(5).trace() == 5
    assert Mat([[0, 1], [0, 0]]).trace() == 0
    with pytest.raises(NonSquareMatrix):
        Mat.zeros(2, 3).trace()


def test_block_assembly():
    t = Mat([[2]])
    u = Mat.block([[t, Mat.identity(1)], [Mat.identity(1), Mat.zeros(1, 1)]])
    assert u == Mat([[2, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        Mat.block([[Mat.identity(2), Mat.identity(1)]])


def test_power():
    m = Mat([[2]])
    assert m ** 0 == Mat.identity(1)
    assert m ** 5 == Mat([[32]])
    assert Mat([[2, 0], [0, 3]]) ** -1 == Mat([["1/2", 0], [0, "1/3"]])


def test_apply():
    m = Mat([[1, 2], [3, 4]])
    assert m.apply((1, 1)) == (Fraction(3), Fraction(7))
    with pytest.raises(DimensionMismatch):
        m.apply((1, 1, 1))


def test_span_helpers():
    e0, e1 = unit_vec(2, 0), unit_vec(2, 1)
    assert span_rank([]) == 0
    assert span_rank([e0, e1, vec([1, 1])]) == 2
    assert in_span([e0], vec([3, 0]))
    assert not in_span([e0], e1)
    assert in_span([], vec([0, 0]))


@given(matrices())
def test_rank_agrees_with_image_basis(m):
    image, kernel = rref_image_kernel(m)
    assert m.rank() == len(image)
    assert len(image) + len(kernel) == m.cols


@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert all(x == 0 for x in m.apply(v))


@given(matrices(max_dim=4))
def test_inverse_round_trip_when_invertible(m):
    try:
        inv = m.inverse()
    except SingularMatrix:
        assert m.rank() < m.rows
        return
    assert m * inv == Mat.identity(m.rows)
    assert inv * m == Mat.identity(m.rows)


@given(square_pairs())
def test_trace_is_commutative_under_products(pair):
    a, b = pair
    assert (a * b).trace() == (b * a).trace()


@given(matrices(max_dim=3))
def test_rref_is_idempotent(m):
    reduced, pivots = m.rref()
    again, pivots2 = reduced.rref()
    assert again == reduced
    assert pivots == pivots2


# ----------------------------------------------------------------------
# differential oracle: the kernel against plain-Fraction reference code
#
# The reference works on lists of Fraction rows with the schoolbook
# formulas, so it shares nothing with the kernel's integer form.


def ref_mul(a, b):
    return tuple(
        tuple(sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(len(b[0])))
        for row in a
    )


def ref_apply(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def ref_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def ref_rref(a):
    """Gauss-Jordan: leftmost nonzero column, first nonzero row from the top."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def ref_inverse(a):
    """The right half of rref([A | I]), or None when A is singular."""
    n = len(a)
    reduced, pivots = ref_rref([row + ref_identity(n)[i] for i, row in enumerate(a)])
    if sum(1 for p in pivots if p < n) < n:
        return None
    return tuple(row[n:] for row in reduced)


def ref_pow(a, n):
    if n < 0:
        a, n = ref_inverse(a), -n
    out = ref_identity(len(a))
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_kernel_basis(a):
    reduced, pivots = ref_rref(a)
    cols = len(a[0])
    basis = []
    for free in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


def ref_column_space_basis(a):
    reduced, pivots = ref_rref(tuple(zip(*a)))
    return [reduced[i] for i in range(len(pivots))]


def assert_exact(got, expected):
    """Equal entry tuples, every entry a Fraction."""
    assert got == expected
    for row in got if got and isinstance(got[0], tuple) else [got]:
        assert all(type(x) is Fraction for x in row), row


# entries: zeros, small rationals, and denominators up to 10^6
oracle_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def oracle_grids(draw, rows=None, cols=None):
    """A rows x cols grid of Fractions: dense, a rank-deficient product of
    thin factors, or either with some rows and columns zeroed."""
    rows = rows or draw(st.integers(1, 7))
    cols = cols or draw(st.integers(1, 9))

    def dense(r, c):
        return draw(st.lists(st.lists(oracle_entries, min_size=c, max_size=c), min_size=r,
                             max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        grid = [list(row) for row in ref_mul(dense(rows, inner), dense(inner, cols))]
    else:
        grid = dense(rows, cols)
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        grid[i] = [Fraction(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in grid:
            row[j] = Fraction(0)
    return tuple(tuple(row) for row in grid)


@st.composite
def product_operands(draw):
    rows, inner, cols = draw(st.integers(1, 7)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    a = draw(oracle_grids(rows, inner))
    b = draw(oracle_grids(inner, cols))
    v = tuple(draw(st.lists(oracle_entries, min_size=inner, max_size=inner)))
    return a, b, v


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_oracle_products_and_matvecs(operands):
    a, b, v = operands
    assert_exact((Mat(a) * Mat(b)).entries, ref_mul(a, b))
    assert_exact(Mat(a).apply(v), ref_apply(a, v))
    # a cached integer form is reused, not stale
    m = Mat(a)
    m.apply(v)
    assert_exact((m * Mat(b)).entries, ref_mul(a, b))


# numerators at zero, small, and at and inside +-2^256; denominators up to 2^256
kernel_numerators = st.one_of(
    st.just(0), st.integers(-9, 9), st.sampled_from([2**256, -2**256]),
    st.integers(-2**256, 2**256),
)
kernel_denominators = st.one_of(st.integers(1, 9), st.integers(2**128, 2**256))


@st.composite
def kernel_operands(draw):
    """An r x c grid, a c x k grid, and a block of `width` columns of
    length c as (den, column-major numerators); r, c, k <= 6."""
    rows, cols, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.builds(Fraction, kernel_numerators, kernel_denominators)

    def grid(r, c):
        return tuple(tuple(draw(st.lists(entries, min_size=c, max_size=c))) for _ in range(r))

    width = draw(st.integers(1, 5))
    block = draw(st.lists(kernel_numerators, min_size=cols * width, max_size=cols * width))
    return grid(rows, cols), grid(cols, k), (draw(kernel_denominators), block)


@settings(max_examples=150, deadline=None)
@given(kernel_operands())
def test_dot_kernel_products_against_fractions(operands):
    a, b, (den, block) = operands
    m = Mat(a)
    assert_exact((m * Mat(b)).entries, ref_mul(a, b))
    got_den, got = m._apply_ints(den, block)
    assert got_den == m.den * den  # not reduced
    columns = [block[j : j + m.cols] for j in range(0, len(block), m.cols)]
    expected = [y for x in columns for y in ref_apply(a, [Fraction(n, den) for n in x])]
    assert [Fraction(n, got_den) for n in got] == expected


@pytest.mark.parametrize("n", [528, 5000])  # ndilation's U at N = 32, d = 16; past any cap
def test_dot_kernel_at_large_inner_dimensions(n):
    rows = [[(-1) ** k * (k + 1) for k in range(n)], [2**256 - k for k in range(n)]]
    vectors = [[k % 7 - 3 for k in range(n)], [0] * (n - 1) + [-(2**256)]]
    got = matrix._DOT_KERNELS[n](rows, vectors)
    assert got == [sum(x * y for x, y in zip(row, v)) for v in vectors for row in rows]


def test_dot_kernels_are_built_once_per_inner_dimension(monkeypatch):
    monkeypatch.setattr(matrix, "_DOT_KERNELS", matrix._DotKernels())
    a, b = Mat([[1, 2, 3], [4, 5, 6]]), Mat([[1], [0], [-1]])
    assert a * b == Mat([[-2], [-2]])
    kernel = matrix._DOT_KERNELS[3]
    assert kernel.__code__.co_filename == "<dilatekit.matrix dot kernel n=3>"
    assert a.apply([1, 0, -1]) == (-2, -2)
    assert a * Mat.identity(3) == a
    assert list(matrix._DOT_KERNELS) == [3]
    assert matrix._DOT_KERNELS[3] is kernel
    assert b * Mat([[7]]) == Mat([[7], [0], [-7]])
    assert list(matrix._DOT_KERNELS) == [3, 1]


def test_no_dot_kernel_is_built_at_import():
    code = "import dilatekit.cli, dilatekit.matrix as m; print(len(m._DOT_KERNELS))"
    env = {**os.environ, "PYTHONPATH": str(Path(matrix.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: oracle_grids(n, n)))
def test_oracle_powers_and_inverse(a):
    m = Mat(a)
    for n in range(7):
        assert_exact((m ** n).entries, ref_pow(a, n))
    cache = _PowerCache(m)
    for n in (3, 0, 6, 1, 4):
        assert_exact(cache.get(n).entries, ref_pow(a, n))
    assert sorted(cache.powers) == [0, 1, 3, 4, 6]
    inv = ref_inverse(a)
    if inv is None:
        with pytest.raises(SingularMatrix):
            m.inverse()
        with pytest.raises(SingularMatrix):
            m ** -1
        return
    assert_exact(m.inverse().entries, inv)
    for n in (-1, -2):
        assert_exact((m ** n).entries, ref_pow(a, n))


@settings(max_examples=150, deadline=None)
@given(oracle_grids())
def test_oracle_elimination(a):
    m = Mat(a)
    reduced, pivots = m.rref()
    ref_reduced, ref_pivots = ref_rref(a)
    assert_exact(reduced.entries, ref_reduced)
    assert pivots == ref_pivots
    assert_exact(tuple(m.kernel_basis()), tuple(ref_kernel_basis(a)))
    assert_exact(tuple(m.column_space_basis()), tuple(ref_column_space_basis(a)))
    assert m.rank() == len(ref_pivots)
    # forward elimination alone finds the same pivots
    assert m.pivot_columns() == pivots


# ----------------------------------------------------------------------
# inverse by in-place elimination: row swaps, denominators and signs


def assert_inverse_is_the_reference(a):
    m, ref = Mat(a), ref_inverse(tuple(vec(row) for row in a))
    inv = m.inverse()
    assert_canonical(inv)
    assert inv == Mat(ref)
    assert m * inv == Mat.identity(m.rows)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_of_every_scaled_permutation(n):
    # every pivot is found below the diagonal in some of these
    for perm in itertools.permutations(range(n)):
        assert_inverse_is_the_reference([[(i + 2) * int(perm[i] == j) for j in range(n)]
                                         for i in range(n)])


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 1]],  # one swap
    [[0, 0, 2], [3, 1, 0], [1, 0, 1]],  # two swaps, determinant -2
    [[1, 2], [3, 4]],  # no swap, determinant -2
    [["1/2", "1/3"], [0, "2/5"]],  # den 30
    [[0, "1/2"], ["1/3", 1]],  # a swap, den 6 and determinant -1/6
    [["-7/3", 0, 0], [0, "5/2", 0], [0, 0, -1]],
])
def test_inverse_with_swaps_denominators_and_signs(a):
    assert_inverse_is_the_reference(a)


@pytest.mark.parametrize("a, r", [
    ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 2),
    ([[0, 1], [0, 2]], 1),
    ([[0, 0], [0, 0]], 0),
    ([["1/2", 1, 0], [1, 2, 0], [0, 0, 0]], 1),
])
def test_singular_inverse_names_the_rank(a, r):
    with pytest.raises(SingularMatrix, match=rf"^matrix has rank {r} < {len(a)}$"):
        Mat(a).inverse()


# ----------------------------------------------------------------------
# canonical form: one (den, nums) per value, whatever the spelling


def assert_canonical(m):
    """den >= 1, integer numerators in m.rows x m.cols, gcd 1 overall."""
    flat = [n for row in m.nums for n in row]
    assert type(m.den) is int and m.den >= 1
    assert all(type(n) is int for n in flat)
    assert len(m.nums) == m.rows and all(len(row) == m.cols for row in m.nums)
    assert gcd(m.den, *flat) == 1


def spellings_of(a, k, c):
    """One grid of Fractions spelled five ways; k > 0 and c != 0."""
    common = lcm(*(x.denominator for row in a for x in row))
    ints = [[int(x * common) for x in row] for row in a]
    return {
        "Fractions": Mat(a),
        "ints, then scaled by 1/lcm": Mat(ints).scale(Fraction(1, common)),
        "unreduced Fractions": Mat(
            [[Fraction(x.numerator * k, x.denominator * k) for x in row] for row in a]
        ),
        "p/q strings": Mat([[f"{x.numerator * k}/{x.denominator * k}" for x in row] for row in a]),
        "scaled by c, then by 1/c": (c * Mat(a)).scale(1 / c),
    }


@settings(max_examples=100, deadline=None)
@given(oracle_grids(), st.integers(1, 12), oracle_entries.filter(bool))
def test_every_spelling_of_a_matrix_is_the_same_value(a, k, c):
    forms = spellings_of(a, k, c)
    reference = forms.pop("Fractions")
    assert_canonical(reference)
    assert reference.entries == a
    for how, m in forms.items():
        assert_canonical(m)
        assert m == reference, how
        assert hash(m) == hash(reference), how
        assert repr(m) == repr(reference), how
        assert mat_to_json(m) == mat_to_json(reference), how


@settings(max_examples=80, deadline=None)
@given(product_operands())
def test_results_of_the_arithmetic_are_canonical(operands):
    a, b, _ = operands
    m, other = Mat(a), Mat(b)
    results = {
        "*": m * other,
        "+": m + m,
        "-": m - m,
        "neg": -m,
        "transpose": m.transpose(),
        "block": Mat.block([[m, m], [m, m]]),
        "rref": m.rref()[0],
        "scale by 0": m.scale(0),
    }
    n = min(m.rows, m.cols)
    square = Mat([row[:n] for row in a[:n]])
    results["**"] = square ** 3
    try:
        results["inverse"] = square.inverse()
    except SingularMatrix:
        pass
    for how, result in results.items():
        assert_canonical(result)
        # a result equals the same matrix built from its Fraction view
        assert result == Mat(result.entries), how


@settings(max_examples=100, deadline=None)
@given(oracle_grids())
def test_mat_to_json_reads_each_entry_as_rat_to_json(a):
    m = Mat(a)
    assert mat_to_json(m) == [[rat_to_json(x) for x in row] for row in m.entries]


# ----------------------------------------------------------------------
# the integer constructors, and copies


def test_identity_and_zeros_equal_their_literals():
    for n in range(1, 6):
        literal = Mat([[int(i == j) for j in range(n)] for i in range(n)])
        assert Mat.identity(n) == literal
        assert hash(Mat.identity(n)) == hash(literal)
        assert_canonical(Mat.identity(n))
    for rows, cols in ((1, 1), (2, 3), (4, 1)):
        literal = Mat([[0] * cols for _ in range(rows)])
        assert Mat.zeros(rows, cols) == literal
        assert hash(Mat.zeros(rows, cols)) == hash(literal)
        assert_canonical(Mat.zeros(rows, cols))


def test_empty_identity_and_zeros_are_refused():
    for build in (lambda: Mat.identity(0), lambda: Mat.identity(-1),
                  lambda: Mat.zeros(0, 2), lambda: Mat.zeros(2, 0)):
        with pytest.raises(MatrixError, match="at least one row and one column"):
            build()


def test_copy_and_pickle_round_trips():
    m = Mat([[1, 2], [3, "1/2"]])
    proj = ProjStd(m)
    proj.apply(FsVec(Domain.UNINAT, 2, {3: (1, 0)}))  # caches T^3 in _powers
    for value in (m, Componentwise(m), proj):
        for how, clone in (
            ("copy", copy.copy(value)),
            ("deepcopy", copy.deepcopy(value)),
            ("pickle", pickle.loads(pickle.dumps(value))),
        ):
            assert clone == value, how
            assert hash(clone) == hash(value), how
    restored = pickle.loads(pickle.dumps(proj))
    assert restored._powers.get(3) == m ** 3
    assert restored.T.entries == m.entries
