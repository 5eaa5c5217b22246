from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatekit import Mat
from dilatekit.matrix import in_span, span_rank, unit_vec
from dilatekit.serialize import vec_to_json
from dilatekit import wold
from dilatekit.wold import (
    EXTENDED,
    STRICT,
    NotInjective,
    WoldDecomposition,
    _eventual_image,
    _row_space,
    eventual_image,
    verify_wold,
    wold_decompose,
)

from strategies import matrices, rationals, vectors

NILPOTENT2 = Mat([[0, 1], [0, 0]])


def test_eventual_image_nilpotent():
    basis, index = eventual_image(NILPOTENT2)
    assert basis == []
    assert index == 2


def test_eventual_image_invertible():
    basis, index = eventual_image(Mat([[2, 1], [1, 1]]))
    assert basis == [unit_vec(2, 0), unit_vec(2, 1)]
    assert index == 0


def test_eventual_image_projection_like():
    basis, index = eventual_image(Mat([[1, 0], [0, 0]]))
    assert basis == [unit_vec(2, 0)]
    assert index == 1


def test_strict_rejects_non_injective():
    with pytest.raises(NotInjective) as exc:
        wold_decompose(NILPOTENT2, STRICT)
    witness = exc.value.witness
    assert witness == unit_vec(2, 0)
    assert all(x == 0 for x in NILPOTENT2.apply(witness))


def test_strict_injective_is_trivial():
    w = wold_decompose(Mat([[2, 1], [1, 1]]), STRICT)
    assert w.Vs_basis == []
    assert len(w.Vb_basis) == 2
    assert verify_wold(w).passed
    assert w.mode == STRICT


def test_extended_nilpotent():
    w = wold_decompose(NILPOTENT2, EXTENDED)
    assert w.Vb_basis == []
    assert w.Vs_basis == [unit_vec(2, 0), unit_vec(2, 1)]
    assert w.stabilization_index == 2
    assert verify_wold(w).passed


def test_partial_collapse():
    w = wold_decompose(Mat([[1, 0], [0, 0]]), EXTENDED)
    assert w.Vb_basis == [unit_vec(2, 0)]
    assert w.Vs_basis == [unit_vec(2, 1)]
    assert verify_wold(w).passed


def test_hand_built_bad_complement_fails_direct_sum():
    T = Mat([[1, 0], [0, 0]])
    w = wold_decompose(T, EXTENDED)
    corrupted = WoldDecomposition(
        T=T,
        Vb_basis=w.Vb_basis,
        Vs_basis=list(w.Vb_basis),  # complement inside the bijective part
        stabilization_index=w.stabilization_index,
        mode=EXTENDED,
    )
    rep = verify_wold(corrupted)
    assert not rep.passed
    failed = {c.name for c in rep.failed_checks()}
    assert any("direct sum" in name for name in failed)
    for check in rep.failed_checks():
        assert check.witness is not None


def test_mode_validation():
    with pytest.raises(ValueError):
        wold_decompose(Mat([[1]]), "loose")


@given(matrices(max_dim=5))
def test_image_chain_monotone_and_certified(T):
    basis, index = eventual_image(T)
    assert index <= T.rows
    w = wold_decompose(T, EXTENDED)
    assert verify_wold(w).passed
    assert span_rank(list(w.Vb_basis) + list(w.Vs_basis)) == T.rows
    # T is surjective from the eventual image onto itself
    images = [T.apply(v) for v in w.Vb_basis]
    assert span_rank(images) == len(w.Vb_basis)


@given(matrices(max_dim=4))
def test_chain_dimensions_decrease(T):
    dims = []
    power = Mat.identity(T.rows)
    for _ in range(T.rows + 1):
        dims.append(power.rank())
        power = T * power
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    basis, index = eventual_image(T)
    assert len(basis) == dims[min(index, len(dims) - 1)]


def test_nilpotent_jordan_chain_index_equals_dimension():
    for d in (2, 3, 4, 5):
        block = Mat([[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)])
        w = wold_decompose(block, EXTENDED)
        assert w.Vb_basis == []
        assert w.stabilization_index == d


# ----------------------------------------------------------------------
# differential: the integer algorithm against a plain-Fraction reference
# of the image chain by T.apply and the greedy complement, one span_rank
# per candidate


def ref_eventual_image(T):
    d = T.rows
    basis = [unit_vec(d, i) for i in range(d)]
    index = 0
    while True:
        image = [T.apply(v) for v in basis]
        next_basis = Mat(image).transpose().column_space_basis() if any(map(any, image)) else []
        if len(next_basis) == len(basis):
            return basis, index
        basis = next_basis
        index += 1


def ref_complement(vb_basis, d):
    chosen, complement = list(vb_basis), []
    for i in range(d):
        candidate = unit_vec(d, i)
        if span_rank(chosen + [candidate]) > len(chosen):
            chosen.append(candidate)
            complement.append(candidate)
    return complement


def ref_invariance_witness(T, vb_basis):
    for v in vb_basis:
        image = T.apply(v)
        if not in_span(vb_basis, image):
            return {"vector": vec_to_json(v), "image": vec_to_json(image)}
    return None


@st.composite
def wold_matrices(draw):
    """Up to 6x6: dense, rank-deficient products of thin factors, and
    nilpotent-plus-dense block sums conjugated by a unit lower triangle."""
    d = draw(st.integers(1, 6))

    def grid(rows, cols):
        return Mat(draw(st.lists(vectors(cols, 5), min_size=rows, max_size=rows)))

    kind = draw(st.sampled_from(["dense", "thin", "nilpotent"]))
    if kind == "dense":
        return grid(d, d)
    if kind == "thin":
        inner = draw(st.integers(1, max(1, d - 1)))
        return grid(d, inner) * grid(inner, d)
    a = draw(st.integers(1, d))  # the nilpotent block's size
    upper = grid(d, d)
    entries = [[upper[i, j] if i < j < a or (a <= i and a <= j) else 0 for j in range(d)]
               for i in range(d)]
    lower = grid(d, d)
    L = Mat([[lower[i, j] if j < i else int(i == j) for j in range(d)] for i in range(d)])
    return L * Mat(entries) * L.inverse()


@settings(max_examples=120, deadline=None)
@given(wold_matrices())
def test_wold_matches_the_fraction_reference(T):
    basis, index = ref_eventual_image(T)
    assert eventual_image(T) == (basis, index)
    w = wold_decompose(T, EXTENDED)
    assert w.Vb_basis == basis
    assert w.Vs_basis == ref_complement(basis, T.rows)
    assert w.stabilization_index == index
    assert all(type(x) is Fraction for v in w.Vb_basis + w.Vs_basis for x in v)
    assert verify_wold(w).passed


@settings(max_examples=60, deadline=None)
@given(wold_matrices())
def test_a_corrupted_complement_fails_direct_sum_with_the_reference_witness(T):
    w = wold_decompose(T, EXTENDED)
    d = T.rows
    zero = tuple(Fraction(0) for _ in range(d))
    vb, vs = list(w.Vb_basis), list(w.Vs_basis)
    if vs:
        vs[-1] = zero
    else:
        vb[-1] = zero
    corrupted = WoldDecomposition(T, vb, vs, w.stabilization_index, EXTENDED)
    checks = {c.name: c for c in verify_wold(corrupted).checks}
    direct_sum = checks["direct sum: combined basis spans the space"]
    assert direct_sum.status == "fail"
    assert direct_sum.witness == {
        "rank": d - 1, "dim": d, "basis": [vec_to_json(v) for v in vb + vs]
    }


@settings(max_examples=80, deadline=None)
@given(st.data(), wold_matrices())
def test_claimed_bijective_parts_get_the_reference_verdicts_and_witnesses(data, T):
    d = T.rows
    w = wold_decompose(T, EXTENDED)
    claimed = data.draw(st.one_of(
        st.lists(vectors(d, 5), max_size=d),
        st.just(list(reversed(w.Vb_basis))),
    ))
    rep = verify_wold(WoldDecomposition(T, claimed, w.Vs_basis, 0, EXTENDED))
    checks = {c.name: c for c in rep.checks}
    invariance = checks["invariance: T maps the bijective part into itself"]
    assert invariance.witness == ref_invariance_witness(T, claimed)
    images = [T.apply(v) for v in claimed]
    bijective = (span_rank(images) == len(claimed)
                 and all(in_span(claimed, image) for image in images))
    bijectivity = checks["bijectivity: T restricted to the bijective part has full rank into it"]
    assert (bijectivity.status == "pass") == bijective
    if not bijective:
        assert bijectivity.witness == {
            "images": [vec_to_json(v) for v in images], "expected_rank": len(claimed)
        }
    ev, _ = ref_eventual_image(T)
    canonical = Mat(claimed).transpose().column_space_basis() if claimed else []
    assert (checks["bijective part equals the eventual image"].status == "pass") == (
        canonical == ev
    )
    joint = span_rank(list(w.Vs_basis) + ev)
    shift = checks["shift certificate: complement meets the eventual image only in zero"]
    assert shift.witness in (None, {"joint_rank": joint, "expected": len(w.Vs_basis) + len(ev)})
    assert (shift.status == "pass") == (joint == len(w.Vs_basis) + len(ev))


@settings(max_examples=120, deadline=None)
@given(wold_matrices())
def test_the_image_of_the_dimension_th_power_is_the_eventual_image(T):
    # the chain stabilizes by index d, so im T^d is its last member
    assert _row_space((T ** T.rows).transpose()) == _eventual_image(T)[0]


def test_verify_wold_builds_no_image_chain(monkeypatch):
    calls = []
    chain = wold._eventual_image

    def counting(T):
        calls.append(T)
        return chain(T)

    monkeypatch.setattr(wold, "_eventual_image", counting)
    for T in (NILPOTENT2, Mat([[1, 0], [0, 0]]), Mat([[2, 1], [1, 1]])):
        w = wold_decompose(T, EXTENDED)
        assert len(calls) == 1
        calls.clear()
        rep = verify_wold(w)
        assert rep.passed and rep.suite == "wold"
        assert calls == []
