"""Wold-style splitting of a coordinate space under a linear map.

The bijective part is the eventual image, i.e. the stabilized member of
the decreasing chain im(T) >= im(T^2) >= ...; in finite dimensions this
equals the intersection of all forward images. Each step of the chain is
one product with T and one rref, on the matrix whose rows are the basis.
The complement is the standard basis vectors that are pivot columns of
rref([Vb | I]): the deterministic choice of greedy extension of Vb by
e_0, e_1, ..., made in one elimination, since complements are genuinely
non-unique. `wold_decompose` only builds the split; `verify_wold` checks
it, comparing with im(T^d) for the dimension d rather than with the
builder's chain.

Strict mode mirrors the injective hypothesis of the underlying theorem
and rejects maps with nontrivial kernel; on a finite-dimensional space an
injective map is already bijective, so the strict splitting is always the
trivial one. Extended mode drops the hypothesis and is the mode that
actually exercises the algorithm; every report flags it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .matrix import Mat, Vec, in_span, require_square, span_rank, unit_vec
from .report import Report
from .serialize import mat_to_json, vec_to_json

STRICT = "strict"
EXTENDED = "extended"


class NotInjective(ValueError):
    """Strict mode rejected a map with nontrivial kernel."""

    def __init__(self, witness: Vec):
        super().__init__("map is not injective; kernel witness attached")
        self.witness = witness


@dataclass(frozen=True)
class WoldDecomposition:
    T: Mat
    Vb_basis: list[Vec]
    Vs_basis: list[Vec]
    stabilization_index: int
    mode: str


def _row_space(m: Mat) -> Optional[Mat]:
    """The nonzero rows of rref(m), a canonical basis of its row space; None if m is zero."""
    reduced, pivots = m.rref()
    if not pivots:
        return None
    # the rows dropped are zero, so the rows kept are still canonical
    return Mat._raw(reduced.den, reduced.nums[: len(pivots)])


def _stack(*parts: Optional[Mat]) -> Optional[Mat]:
    """The rows of the parts given, one below the other."""
    parts = [p for p in parts if p is not None]
    return Mat.block([[p] for p in parts]) if parts else None


def _rank(m: Optional[Mat]) -> int:
    return 0 if m is None else m.rank()


def _vecs(m: Optional[Mat]) -> list[Vec]:
    return [] if m is None else list(m.entries)


def _eventual_image(T: Mat) -> tuple[Optional[Mat], int]:
    # eventual_image, with the basis as rows of a matrix (None if it is empty)
    Tt = require_square(T).transpose()
    basis: Optional[Mat] = Mat.identity(T.rows)  # im(T^0) = whole space
    index = 0
    while basis is not None:
        image = _row_space(basis * Tt)  # its rows are T v for the rows v of basis
        if image is not None and image.rows == basis.rows:
            break
        basis, index = image, index + 1
    return basis, index


def eventual_image(T: Mat) -> tuple[list[Vec], int]:
    """Stabilized image chain basis and the index where it stabilizes.

    Returns the canonical basis of im(T^k) for the minimal k with
    dim im(T^k) = dim im(T^{k+1}); k is at most the space dimension.
    """
    basis, index = _eventual_image(T)
    return _vecs(basis), index


def wold_decompose(T: Mat, mode: str = EXTENDED) -> WoldDecomposition:
    """Split the space into the eventual image and a deterministic complement."""
    if mode not in (STRICT, EXTENDED):
        raise ValueError(f"unknown mode {mode!r}")
    require_square(T)
    if mode == STRICT:
        kernel = T.kernel_basis()
        if kernel:
            raise NotInjective(kernel[0])
    basis, index = _eventual_image(T)

    # a column of [Vb | I] is a pivot iff it is outside the span of those before it
    d, k = T.rows, 0 if basis is None else basis.rows
    extended = _stack(basis, Mat.identity(d)).transpose()
    vs_basis = [unit_vec(d, p - k) for p in extended.rref()[1] if p >= k]

    return WoldDecomposition(
        T=T, Vb_basis=_vecs(basis), Vs_basis=vs_basis, stabilization_index=index, mode=mode
    )


def verify_wold(w: WoldDecomposition) -> Report:
    """Exact checks of a claimed splitting.

    Checks: the two bases together span the whole space; the bijective
    part is invariant under T; T restricted to it has full rank into it;
    the claimed bijective part agrees with the eventual image; the
    complement meets the eventual image only in zero (the shift
    certificate); and the stabilization index is at most the dimension d.
    The checks are ranks of, or equality with, integer matrices whose rows
    are the vectors involved; a witness is looked for only when a check
    fails. The eventual image is taken as im T^d, where the image chain has
    stabilized (Fitting's lemma): one power and one rref, independent of
    the builder's chain.
    """
    d = w.T.rows
    report = Report(
        suite="wold",
        config={"mode": w.mode, "dim": d},
        data={
            "Vb_basis": lambda: [vec_to_json(v) for v in w.Vb_basis],
            "Vs_basis": lambda: [vec_to_json(v) for v in w.Vs_basis],
            "stabilization_index": w.stabilization_index,
        },
    )

    combined = list(w.Vb_basis) + list(w.Vs_basis)
    rank = span_rank(combined)
    report.add(
        "direct sum: combined basis spans the space",
        rank == d,
        witness=lambda: {"rank": rank, "dim": d, "basis": [vec_to_json(v) for v in combined]},
    )

    vb = Mat(w.Vb_basis) if w.Vb_basis else None
    claimed = None if vb is None else _row_space(vb)
    images = None if vb is None else vb * w.T.transpose()  # rows T v for v in Vb
    invariant = _rank(_stack(vb, images)) == (0 if claimed is None else claimed.rows)
    report.add(
        "invariance: T maps the bijective part into itself",
        invariant,
        witness=lambda: next(  # the first vector that T maps out of the part
            {"vector": vec_to_json(v), "image": vec_to_json(w.T.apply(v))}
            for v in w.Vb_basis
            if not in_span(w.Vb_basis, w.T.apply(v))
        ),
    )

    report.add(
        "bijectivity: T restricted to the bijective part has full rank into it",
        invariant and _rank(images) == len(w.Vb_basis),
        witness=lambda: {"images": mat_to_json(images), "expected_rank": len(w.Vb_basis)},
    )

    ev = _row_space((w.T**d).transpose())
    report.add(
        "bijective part equals the eventual image",
        claimed == ev,
        witness=lambda: {
            "claimed": [vec_to_json(v) for v in w.Vb_basis],
            "eventual_image": [vec_to_json(v) for v in _vecs(ev)],
        },
    )

    expected = len(w.Vs_basis) + (0 if ev is None else ev.rows)
    joint = _rank(_stack(Mat(w.Vs_basis) if w.Vs_basis else None, ev))
    report.add(
        "shift certificate: complement meets the eventual image only in zero",
        joint == expected,
        witness={"joint_rank": joint, "expected": expected},
    )

    report.add(
        "stabilization index at most the space dimension",
        w.stabilization_index <= d,
        witness={"index": w.stabilization_index, "dim": d},
    )
    return report
