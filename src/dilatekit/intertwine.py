"""Lifting an intertwiner of two maps to their standard dilations.

Given T1, T2 and S with T1 S = S T2, the coordinatewise action of S is a
lift R between the one-sided dilation spaces satisfying

    U1 R = R U2,   R P2 = P1 R,   R I2 = I1 S.

The converse direction recovers S from any operator R satisfying the
first two relations. The relations quantify over an infinite-dimensional
domain, so the converse certifies them on all basis elements up to a
stated bound before extracting; the extracted map always has its
intertwining relation re-checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .finsupp import Domain, FsVec
from .matrix import Mat, NonSquareMatrix, require_square, unit_vec, vec
from .report import Report
from .seqops import Componentwise, SeqOp
from .sequence import StandardDilation, standard_build
from .serialize import fsvec_to_json, mat_to_json, vec_to_json


class NotIntertwining(ValueError):
    """T1 S != S T2; the defect matrix is attached as witness."""

    def __init__(self, defect: Mat):
        super().__init__("intertwining relation fails; T1 S - S T2 attached")
        self.defect = defect


class HypothesisFailed(ValueError):
    """A lift relation failed bounded certification on a basis probe."""

    def __init__(self, relation: str, witness: dict):
        super().__init__(f"hypothesis {relation} failed on a basis probe")
        self.relation = relation
        self.witness = witness


class RangeViolation(ValueError):
    """Projected image escaped the embedded copy of the ambient space."""


@dataclass(frozen=True)
class IntertwinePair:
    """Two maps, an exact intertwiner between them, and their dilations."""

    T1: Mat
    T2: Mat
    S: Mat
    dil1: StandardDilation
    dil2: StandardDilation


def make_pair(T1: Mat, T2: Mat, S: Mat) -> IntertwinePair:
    require_square(T1, "T1")
    require_square(T2, "T2")
    if S.rows != T1.rows or S.cols != T2.rows:
        raise NonSquareMatrix(
            f"S must be {T1.rows}x{T2.rows} to map the second space into the first, "
            f"got {S.rows}x{S.cols}"
        )
    defect = T1 * S - S * T2
    if not defect.is_zero():
        raise NotIntertwining(defect)
    return IntertwinePair(T1=T1, T2=T2, S=S, dil1=standard_build(T1), dil2=standard_build(T2))


def lift_intertwiner(pair: IntertwinePair) -> SeqOp:
    """The coordinatewise lift (x_n) -> (S x_n)."""
    return Componentwise(pair.S)


def lift_relations(R: SeqOp, dil1: StandardDilation, dil2: StandardDilation):
    """The relations U1 R = R U2 and R P2 = P1 R, each as (label, relation,
    lhs, rhs) with lhs and rhs maps on the second dilation space."""
    return (
        (
            "forward shifts intertwine",
            "U1 R = R U2",
            lambda x: dil1.U.apply(R.apply(x)),
            lambda x: R.apply(dil2.U.apply(x)),
        ),
        (
            "projections intertwine",
            "R P2 = P1 R",
            lambda x: R.apply(dil2.P.apply(x)),
            lambda x: dil1.P.apply(R.apply(x)),
        ),
    )


def relation_witness(lhs, rhs, probes: Sequence[FsVec]) -> Optional[dict]:
    """The first probe on which lhs and rhs differ, as a JSON witness."""
    for x in probes:
        left, right = lhs(x), rhs(x)
        if left != right:
            return {
                "probe": fsvec_to_json(x),
                "lhs": fsvec_to_json(left),
                "rhs": fsvec_to_json(right),
            }
    return None


def _basis_probes(dim: int, n_max: int) -> list[FsVec]:
    """Basis elements supported at indices 0..n_max, the certification
    bound, which must be at least 1."""
    if n_max < 1:
        raise ValueError(f"certification bound must be >= 1, got {n_max}")
    return [
        FsVec.single(Domain.UNINAT, dim, n, unit_vec(dim, i))
        for n in range(n_max + 1)
        for i in range(dim)
    ]


def verify_lift(
    R: SeqOp,
    pair: IntertwinePair,
    probes: Sequence[FsVec],
    n_max: int = 12,
) -> Report:
    """Check the three lift relations exactly on probes and basis elements.

    Basis elements supported at indices up to n_max are always included in
    addition to the supplied probes, so passing relation checks are the
    certificate that `extract_intertwiner` would establish with
    cert_bound = n_max.
    """
    d2 = pair.T2.rows
    all_probes = list(probes) + _basis_probes(d2, n_max)

    report = Report(
        suite="intertwine_verify",
        config={"n_max": n_max, "probes": len(all_probes)},
    )
    for label, relation, lhs, rhs in lift_relations(R, pair.dil1, pair.dil2):
        witness = relation_witness(lhs, rhs, all_probes)
        report.add(f"{label}: {relation}", witness is None, bound=n_max, witness=witness)

    witness = None
    vec_probes = [unit_vec(d2, i) for i in range(d2)] + [
        x.coeff(0) for x in probes if not x.is_zero()
    ]
    for v in vec_probes:
        left = R.apply(pair.dil2.I.apply(v))
        right = pair.dil1.I.apply(pair.S.apply(v))
        if left != right:
            witness = {
                "vector": vec_to_json(vec(v)),
                "lhs": fsvec_to_json(left),
                "rhs": fsvec_to_json(right),
            }
            break
    report.add(
        "embeddings intertwine: R I2 = I1 S",
        witness is None,
        bound=len(vec_probes),
        witness=witness,
    )
    return report


def read_off_intertwiner(R: SeqOp, dil1: StandardDilation, dil2: StandardDilation) -> Mat:
    """The map whose column i is the origin coordinate of P1 R I2 e_i.

    Only meaningful once U1 R = R U2 and R P2 = P1 R are certified; an
    image supported off the origin, or of the wrong length, raises
    RangeViolation.
    """
    d1, d2 = dil1.dim, dil2.dim
    columns = []
    for i in range(d2):
        projected = dil1.P.apply(R.apply(dil2.I.apply(unit_vec(d2, i))))
        if any(k != 0 for k in projected.indices()):
            raise RangeViolation(
                f"P1 R I2 e_{i} is supported outside the origin: {projected!r}"
            )
        column = projected.coeff(0)
        if len(column) != d1:
            raise RangeViolation(
                f"extracted column {i} has length {len(column)}, expected {d1}"
            )
        columns.append(column)
    return Mat.from_columns(columns)


def extract_intertwiner(
    R: SeqOp,
    dil1: StandardDilation,
    dil2: StandardDilation,
    cert_bound: int = 12,
) -> Mat:
    """Recover the intertwiner from a lift, after bounded certification.

    The relations U1 R = R U2 and R P2 = P1 R are certified exactly on all
    basis elements supported at indices up to cert_bound; then the map is
    read off (`read_off_intertwiner`), and its intertwining relation is
    asserted exactly.
    """
    basis = _basis_probes(dil2.dim, cert_bound)
    for _, relation, lhs, rhs in lift_relations(R, dil1, dil2):
        witness = relation_witness(lhs, rhs, basis)
        if witness is not None:
            raise HypothesisFailed(relation, witness)

    S = read_off_intertwiner(R, dil1, dil2)
    defect = dil1.T * S - S * dil2.T
    if not defect.is_zero():
        raise NotIntertwining(defect)
    return S


def certification_report(
    R: SeqOp, dil1: StandardDilation, dil2: StandardDilation, cert_bound: int
) -> Report:
    """Extract the intertwiner from R and report the outcome.

    A relation that fails bounded certification is a failed check carrying
    the relation and its witness (probe, lhs, rhs). An extracted map that
    does not intertwine, which `extract_intertwiner` itself detects, is a
    failed check carrying the defect T1 S - S T2.
    """
    report = Report(suite="intertwine_extract", config={"cert_bound": cert_bound})
    certified = "extraction: relations certified on basis elements up to the bound"
    intertwines = "extracted map intertwines: T1 S = S T2"
    try:
        S = extract_intertwiner(R, dil1, dil2, cert_bound=cert_bound)
    except HypothesisFailed as exc:
        witness = {"relation": exc.relation, **exc.witness}
        report.add(certified, False, bound=cert_bound, witness=witness)
        return report
    except NotIntertwining as exc:
        report.add(certified, True, bound=cert_bound)
        report.add(intertwines, False, witness={"defect": mat_to_json(exc.defect)})
        return report
    report.data["S"] = mat_to_json(S)
    report.add(certified, True, bound=cert_bound)
    report.add(intertwines, True)
    return report
