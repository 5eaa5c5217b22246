"""Lifting an intertwiner of two maps to their standard dilations.

Given T1, T2 and S with T1 S = S T2, the coordinatewise action of S is a
lift R between the one-sided dilation spaces satisfying

    U1 R = R U2,   R P2 = P1 R,   R I2 = I1 S.

The converse direction recovers S from any operator R satisfying the
first two relations. The relations quantify over an infinite-dimensional
domain, so the converse (`certification_report`) certifies them on all
basis elements up to a stated bound before reading S off, and then checks
its intertwining relation exactly; both outcomes are checks of one report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .finsupp import FsVec
from .matrix import DimensionMismatch, Mat, require_square
from .report import Report
from .seqops import Componentwise, Compose, SeqOp
from .sequence import (
    Dilation,
    basis_block,
    differing_probes,
    image_differences,
    space_of,
    standard_build,
)
from .serialize import compact_json, fsvec_to_json, mat_to_json, vec_to_json
from .sizes import require_within


class NotIntertwining(ValueError):
    """T1 S != S T2; carries the defect, which the message prints."""

    def __init__(self, defect: Mat):
        super().__init__(
            f"intertwining relation fails; T1 S - S T2 = {compact_json(mat_to_json(defect))}"
        )
        self.defect = defect


class RangeViolation(ValueError):
    """Projected image escaped the embedded copy of the ambient space."""


@dataclass(frozen=True)
class IntertwinePair:
    """Two maps, an exact intertwiner between them, and their dilations."""

    T1: Mat
    T2: Mat
    S: Mat
    dil1: Dilation
    dil2: Dilation


def make_pair(T1: Mat, T2: Mat, S: Mat) -> IntertwinePair:
    require_square(T1, "T1")
    require_square(T2, "T2")
    if S.rows != T1.rows or S.cols != T2.rows:
        raise DimensionMismatch(
            f"S must be {T1.rows}x{T2.rows} to map the second space into the first, "
            f"got {S.rows}x{S.cols}"
        )
    defect = T1 * S - S * T2
    if not defect.is_zero():
        raise NotIntertwining(defect)
    dil1, dil2 = standard_dilations(T1, T2)
    return IntertwinePair(T1=T1, T2=T2, S=S, dil1=dil1, dil2=dil2)


def standard_dilations(T1: Mat, T2: Mat) -> tuple[Dilation, Dilation]:
    """The standard dilations of T1 and T2: one dilation, and so one power
    cache, when T2 == T1."""
    dil1 = standard_build(T1)
    return dil1, dil1 if T2 == T1 else standard_build(T2)


def lift_intertwiner(pair: IntertwinePair) -> SeqOp:
    """The coordinatewise lift (x_n) -> (S x_n)."""
    return Componentwise(pair.S)


def lift_relations(R: SeqOp, dil1: Dilation, dil2: Dilation):
    """The relations U1 R = R U2 and R P2 = P1 R, each as (label, relation,
    lhs, rhs) with lhs and rhs operator chains (`Compose`) on the second
    dilation space."""
    return (
        ("forward shifts intertwine", "U1 R = R U2", Compose((dil1.U, R)), Compose((R, dil2.U))),
        ("projections intertwine", "R P2 = P1 R", Compose((R, dil2.P)), Compose((dil1.P, R))),
    )


def relation_witness(lhs: SeqOp, rhs: SeqOp, probes: Sequence[FsVec]) -> Optional[dict]:
    """The first probe on which the chains lhs and rhs differ, as a JSON
    witness; a block of probes runs in the order of its probes. The chains
    act on columns (`image_differences`), building ``FsVec``s for a witness."""
    for x in probes:
        images = image_differences(lhs, rhs, x)
        for j, left, right in differing_probes(*images) if images else ():
            return {
                "probe": fsvec_to_json(x.probe(j)),
                "lhs": fsvec_to_json(left),
                "rhs": fsvec_to_json(right),
            }
    return None


def _basis_probes(dim: int, n_max: int) -> list[FsVec]:
    """Basis elements supported at indices 0..n_max, one block per index."""
    return [basis_block(dim, n) for n in range(n_max + 1)]


def verify_lift(
    R: SeqOp,
    pair: IntertwinePair,
    probes: Sequence[FsVec],
    n_max: int,
) -> Report:
    """Check the three lift relations exactly on probes and basis elements.

    Basis elements supported at indices up to n_max are always included in
    addition to the supplied probes, so passing relation checks are the
    certificate that `certification_report` would establish with
    cert_bound = n_max.
    """
    require_within("n_max", "n_max", n_max)
    d2 = pair.T2.rows
    all_probes = list(probes) + _basis_probes(d2, n_max)

    report = Report(
        suite="intertwine_verify",
        config={"n_max": n_max, "probes": sum(x.width for x in all_probes)},
    )
    for label, relation, lhs, rhs in lift_relations(R, pair.dil1, pair.dil2):
        witness = relation_witness(lhs, rhs, all_probes)
        report.add(f"{label}: {relation}", witness is None, bound=n_max, witness=witness)

    vec_probes = [*Mat.identity(d2).entries, *(x.coeff(0) for x in probes if not x.is_zero())]
    left = R.apply(pair.dil2.I.apply_block(vec_probes))
    right = pair.dil1.I.apply_block([pair.S.apply(v) for v in vec_probes])
    witness = next(
        (
            {"vector": vec_to_json(vec_probes[j]), "lhs": fsvec_to_json(l), "rhs": fsvec_to_json(r)}
            for j, l, r in differing_probes(left, right)
        ),
        None,
    )
    report.add(
        "embeddings intertwine: R I2 = I1 S",
        witness is None,
        bound=len(vec_probes),
        witness=witness,
    )
    return report


def read_off_intertwiner(R: SeqOp, dil1: Dilation, dil2: Dilation) -> Mat:
    """The map whose column i is the origin coordinate of P1 R I2 e_i, all i
    in one block.

    Only meaningful once U1 R = R U2 and R P2 = P1 R are certified; an
    image supported off the origin, or of the wrong length, raises
    RangeViolation.
    """
    d1, d2 = dil1.dim, dil2.dim
    basis = dil2.I.apply_block(Mat.identity(d2).entries)
    chain, space = Compose((dil1.P, R)), space_of(basis)
    (domain, dim), projected = chain.codomain(space), chain.act(basis.columns, space, d2)
    if any(k != 0 for k in projected):
        image = FsVec._raw(domain, dim, projected, d2)
        raise RangeViolation(f"P1 R I2 e_i is supported outside the origin: {image!r}")
    if dim != d1:
        raise RangeViolation(f"extracted columns have length {dim}, expected {d1}")
    # the block's probes are the columns, so its numerators are the rows of S^T
    den, nums = projected.get(0, (1, (0,) * (d1 * d2)))
    return Mat._reduced(den, nums, d1).transpose()


def certification_report(R: SeqOp, dil1: Dilation, dil2: Dilation, cert_bound: int) -> Report:
    """Recover the intertwiner from a lift, after bounded certification.

    The relations U1 R = R U2 and R P2 = P1 R are certified exactly on all
    basis elements supported at indices up to cert_bound; the first that
    fails is a failed check carrying the relation and its witness (probe,
    lhs, rhs). Otherwise the map S is read off (`read_off_intertwiner`) and
    T1 S = S T2 is checked exactly, with the defect as witness; data["S"]
    is set only when it holds.
    """
    require_within("cert_bound", "n_max", cert_bound)
    report = Report(suite="intertwine_extract", config={"cert_bound": cert_bound})
    certified = "extraction: relations certified on basis elements up to the bound"
    basis = _basis_probes(dil2.dim, cert_bound)
    for _, relation, lhs, rhs in lift_relations(R, dil1, dil2):
        witness = relation_witness(lhs, rhs, basis)
        if witness is not None:
            witness = {"relation": relation, **witness}
            report.add(certified, False, bound=cert_bound, witness=witness)
            return report

    S = read_off_intertwiner(R, dil1, dil2)
    defect = dil1.T * S - S * dil2.T
    intertwines = defect.is_zero()
    if intertwines:
        report.data["S"] = mat_to_json(S)
    report.add(certified, True, bound=cert_bound)
    report.add(
        "extracted map intertwines: T1 S = S T2",
        intertwines,
        witness=lambda: {"defect": mat_to_json(defect)},
    )
    return report
