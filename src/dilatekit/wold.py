"""Wold-style splitting of a coordinate space under a linear map.

The bijective part is the eventual image, i.e. the stabilized member of
the decreasing chain im(T) >= im(T^2) >= ...; in finite dimensions this
equals the intersection of all forward images. The complement is chosen
deterministically by greedy extension with standard basis vectors, since
complements are genuinely non-unique.

Strict mode mirrors the injective hypothesis of the underlying theorem
and rejects maps with nontrivial kernel; on a finite-dimensional space an
injective map is already bijective, so the strict splitting is always the
trivial one. Extended mode drops the hypothesis and is the mode that
actually exercises the algorithm; every report flags it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Mat, Vec, in_span, require_square, span_rank, unit_vec
from .report import Report
from .serialize import vec_to_json

STRICT = "strict"
EXTENDED = "extended"


class NotInjective(ValueError):
    """Strict mode rejected a map with nontrivial kernel."""

    def __init__(self, witness: Vec):
        super().__init__("map is not injective; kernel witness attached")
        self.witness = witness


@dataclass
class WoldDecomposition:
    T: Mat
    Vb_basis: list[Vec]
    Vs_basis: list[Vec]
    stabilization_index: int
    mode: str
    certificates: Report


def eventual_image(T: Mat) -> tuple[list[Vec], int]:
    """Stabilized image chain basis and the index where it stabilizes.

    Returns the canonical basis of im(T^k) for the minimal k with
    dim im(T^k) = dim im(T^{k+1}); k is at most the space dimension.
    """
    d = require_square(T).rows
    basis = [unit_vec(d, i) for i in range(d)]  # im(T^0) = whole space
    index = 0
    while True:
        image = [T.apply(v) for v in basis]
        next_basis = (
            Mat.from_columns(image).column_space_basis()
            if any(not all(x == 0 for x in c) for c in image)
            else []
        )
        if len(next_basis) == len(basis):
            return basis, index
        basis = next_basis
        index += 1


def wold_decompose(T: Mat, mode: str = EXTENDED) -> WoldDecomposition:
    """Split the space into the eventual image and a deterministic complement."""
    if mode not in (STRICT, EXTENDED):
        raise ValueError(f"unknown mode {mode!r}")
    require_square(T)
    if mode == STRICT:
        kernel = T.kernel_basis()
        if kernel:
            raise NotInjective(kernel[0])
    vb_basis, index = eventual_image(T)

    vs_basis: list[Vec] = []
    chosen = list(vb_basis)
    rank = len(chosen)
    for i in range(T.rows):
        candidate = unit_vec(T.rows, i)
        if span_rank(chosen + [candidate]) > rank:
            chosen.append(candidate)
            vs_basis.append(candidate)
            rank += 1

    decomposition = WoldDecomposition(
        T=T,
        Vb_basis=vb_basis,
        Vs_basis=vs_basis,
        stabilization_index=index,
        mode=mode,
        certificates=Report(suite="wold_verify"),
    )
    decomposition.certificates = verify_wold(decomposition)
    return decomposition


def verify_wold(w: WoldDecomposition) -> Report:
    """Exact certificates for a claimed splitting.

    Checks: the two bases together span the whole space; the bijective
    part is invariant under T; T restricted to it has full rank into it;
    the claimed bijective part agrees with the eventual image; and the
    complement meets the eventual image only in zero (the shift
    certificate).
    """
    d = w.T.rows
    report = Report(
        suite="wold_verify",
        config={"mode": w.mode, "dim": d},
        data={
            "Vb_basis": [vec_to_json(v) for v in w.Vb_basis],
            "Vs_basis": [vec_to_json(v) for v in w.Vs_basis],
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

    invariance_witness = None
    for v in w.Vb_basis:
        image = w.T.apply(v)
        if not in_span(w.Vb_basis, image):
            invariance_witness = {"vector": vec_to_json(v), "image": vec_to_json(image)}
            break
    report.add("invariance: T maps the bijective part into itself", invariance_witness is None, witness=invariance_witness)

    images = [w.T.apply(v) for v in w.Vb_basis]
    bijective = (
        span_rank(images) == len(w.Vb_basis)
        and all(in_span(w.Vb_basis, img) for img in images)
    )
    report.add(
        "bijectivity: T restricted to the bijective part has full rank into it",
        bijective,
        witness=lambda: {
            "images": [vec_to_json(v) for v in images],
            "expected_rank": len(w.Vb_basis),
        },
    )

    ev_basis, _ = eventual_image(w.T)
    claimed_canonical = (
        Mat.from_columns(w.Vb_basis).column_space_basis() if w.Vb_basis else []
    )
    agrees = claimed_canonical == ev_basis
    report.add(
        "bijective part equals the eventual image",
        agrees,
        witness=lambda: {
            "claimed": [vec_to_json(v) for v in w.Vb_basis],
            "eventual_image": [vec_to_json(v) for v in ev_basis],
        },
    )

    joint = span_rank(list(w.Vs_basis) + ev_basis)
    disjoint = joint == len(w.Vs_basis) + len(ev_basis)
    report.add(
        "shift certificate: complement meets the eventual image only in zero",
        disjoint,
        witness={"joint_rank": joint, "expected": len(w.Vs_basis) + len(ev_basis)},
    )

    return report
