"""Dilations on infinite-dimensional sequence spaces, verified on probes.

Three constructions live here, each a `Dilation` (T, I, U, P):

* the two-sided construction, an invertible U on bilateral sequences
  whose powers compress to the powers of T at coordinate 0,
* the standard minimal injective dilation on one-sided sequences,
* the two-parameter variant on doubly indexed grids for a commuting pair.

The defining identities quantify over all exponents; verification is
bounded: each identity is checked exactly up to a configurable bound on
basis and caller-supplied probes, and every report states the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .finsupp import Domain, FsVec
from .matrix import DimensionMismatch, Mat, Vec, reduce_column, require_square, vec
from .report import Report, first_witness
from .seqops import (
    Componentwise,
    CoordProj0,
    EmbedI,
    GridDown,
    GridRight,
    ProjAndo,
    ProjStd,
    SchafferU,
    SchafferVInv,
    SeqOp,
    ShiftRight,
)
from .serialize import compact_json, fsvec_to_json, mat_to_json, vec_to_json
from .sizes import require_within


class NonCommuting(ValueError):
    """The two-parameter construction needs TS = ST; carries the defect."""

    def __init__(self, defect: Mat):
        super().__init__(f"operators do not commute; TS - ST = {compact_json(mat_to_json(defect))}")
        self.defect = defect


def _probe_vecs(probes: Sequence[Sequence], dim: int) -> list[Vec]:
    out = []
    for p in probes:
        v = vec(p)
        if len(v) != dim:
            raise DimensionMismatch(f"probe has length {len(v)}, expected {dim}")
        out.append(v)
    return out


@dataclass(frozen=True)
class Dilation:
    """A dilation (T, I, U, P) of T: P U^n I = I T^n for every n >= 0.

    The two-sided construction also sets the inverse `U_inv`; the
    two-parameter one sets the commuting `S` and its dilating shift `V`.
    """

    T: Mat
    I: SeqOp
    U: SeqOp
    P: SeqOp
    U_inv: Optional[SeqOp] = None
    S: Optional[Mat] = None
    V: Optional[SeqOp] = None

    @property
    def dim(self) -> int:
        return self.T.rows


def _prologue(
    dil: Dilation, suite: str, probes: Sequence[Sequence], seq_probes, **bounds: int
) -> tuple[list[Vec], Sequence[FsVec], Report]:
    """A sequence verifier's probe vectors, sequence probes and report."""
    vecs = _probe_vecs(probes, dil.dim)
    if seq_probes is None:
        seq_probes = [dil.I.apply(x) for x in vecs]
    config = {**bounds, "probes": len(vecs), "seq_probes": len(seq_probes)}
    return vecs, seq_probes, Report(suite=suite, config=config)


def differing_probes(a: FsVec, b: FsVec) -> Iterator[tuple[int, FsVec, FsVec]]:
    """Every (j, a_j, b_j), in order, with probe j of the block a not equal
    to probe j of the block b."""
    if a != b:
        for j in range(a.width):
            a_j, b_j = a.probe(j), b.probe(j)
            if a_j != b_j:
                yield j, a_j, b_j


def basis_block(dim: int, n: int) -> FsVec:
    """The one-sided block whose probe i is the basis element e_n (x) e_i."""
    identity = tuple(int(r == c) for c in range(dim) for r in range(dim))
    return FsVec._raw(Domain.UNINAT, dim, [(n, (1, identity))], dim)


def compression_mismatches(
    T: Mat, U: SeqOp, P: SeqOp, starts: Sequence[tuple[FsVec, FsVec]], n_max: int
) -> Iterator[tuple[int, int, int, FsVec, FsVec]]:
    """Every (n, i, j, projected, expected) with P U^n y_i != T^n z_i on
    probe j, for 0 <= n <= n_max, in (n, i, j) order, over the start pairs
    of blocks (y_i, z_i).

    This is the compression identity of every dilation here: with
    y = z = I x it reads P U^n I x = I T^n x. Both sides are carried forward
    one step per n: y by U, and z by T acting componentwise on P's domain,
    independently of U and P. Each step applies each operator once to a
    whole block of probes. z is carried as its canonical integer columns,
    compared with those of P U^n y by one dict ``==`` and with its shape;
    an ``FsVec`` is built for z only where they differ."""
    domain, d = P.domain, T.rows
    for _, z in starts:  # T acts on z as Componentwise(T, domain) would
        Componentwise(T, domain)._check_input(z, T.cols, domain)
    ys = [y for y, _ in starts]
    zs = [z.columns for _, z in starts]
    shapes = [(domain, d, z.width) for _, z in starts]
    for n in range(n_max + 1):
        for i, (y, z, shape) in enumerate(zip(ys, zs, shapes)):
            if n > 0:
                ys[i] = y = U.apply(y)
                stepped = ((k, reduce_column(*T._apply_ints(*c))) for k, c in z.items())
                zs[i] = z = {k: c for k, c in stepped if c is not None}
            projected = P.apply(y)
            if projected.columns != z or (projected.domain, projected.dim, projected.width) != shape:
                expected = FsVec._raw(domain, d, z.items(), shape[2])
                for j, got, want in differing_probes(projected, expected):
                    yield n, i, j, got, want


def _compression_witness(dil, vecs: list[Vec], first_n: int, n_max: int) -> Optional[dict]:
    """The first (n, x), in that order, with P U^n I x != I T^n x for
    first_n <= n <= n_max, as a JSON witness."""
    starts = [(dil.I.apply_block(vecs),) * 2]
    for n, _, j, projected, expected in compression_mismatches(dil.T, dil.U, dil.P, starts, n_max):
        if n >= first_n:
            return {
                "n": n,
                "probe": vec_to_json(vecs[j]),
                "projected": fsvec_to_json(projected),
                "expected": fsvec_to_json(expected),
            }
    return None


# ----------------------------------------------------------------------
# two-sided construction


def schaffer_build(T: Mat) -> Dilation:
    """Invertible two-sided operator compressing to powers of T at index 0."""
    require_square(T)
    d = T.rows
    return Dilation(
        T=T,
        I=EmbedI(d, Domain.BIINT),
        U=SchafferU(T),
        P=CoordProj0(d, Domain.BIINT),
        U_inv=SchafferVInv(T),
    )


def check_inverse_pair(a: SeqOp, b: SeqOp, probes: Sequence[FsVec]) -> Report:
    """Verify a(b(x)) = x and b(a(x)) = x exactly on every probe."""

    def mismatch(first: SeqOp, second: SeqOp, x: FsVec) -> Optional[dict]:
        y = second.apply(first.apply(x))
        return None if y == x else {"probe": fsvec_to_json(x), "result": fsvec_to_json(y)}

    report = Report(suite="inverse_pair")
    for name, first, second in (("a(b(x)) = x", b, a), ("b(a(x)) = x", a, b)):
        witness = first_witness(probes, lambda x: mismatch(first, second, x))
        report.add(name, witness is None, bound=len(probes), witness=witness)
    return report


def schaffer_verify(
    sd: Dilation,
    probes: Sequence[Sequence],
    n_max: int,
    seq_probes: Optional[Sequence[FsVec]] = None,
) -> Report:
    """Inverse pair on bilateral probes plus the compression identity.

    ``probes`` are ambient vectors for the compression check; ``seq_probes``
    are bilateral elements for the inverse check (defaults to the embedded
    probes when omitted).
    """
    require_within("n_max", "n_max", n_max)
    vecs, seq_probes, report = _prologue(sd, "schaffer_verify", probes, seq_probes, n_max=n_max)
    inverse = check_inverse_pair(sd.U, sd.U_inv, seq_probes)
    for check in inverse.checks:
        check.name = f"inverse pair: {check.name}"
        report.checks.append(check)

    witness = _compression_witness(sd, vecs, 1, n_max)
    report.add(
        "compression: coordinate 0 of U^n(I x) equals T^n x (1 <= n <= bound)",
        witness is None,
        bound=n_max,
        witness=witness,
    )
    return report


# ----------------------------------------------------------------------
# standard minimal injective dilation


def standard_build(T: Mat) -> Dilation:
    """Minimal injective dilation on one-sided sequences.

    The embedding places a vector at index 0, the forward map is the
    one-sided shift, and the projection collapses (x_n) to sum_n T^n x_n
    at index 0.
    """
    require_square(T)
    d = T.rows
    return Dilation(T=T, I=EmbedI(d, Domain.UNINAT), U=ShiftRight(d), P=ProjStd(T))


def standard_verify(
    sd: Dilation,
    probes: Sequence[Sequence],
    n_max: int,
    seq_probes: Optional[Sequence[FsVec]] = None,
) -> Report:
    """All quadruple axioms plus the dilation equation up to n_max.

    Injectivity of the embedding and the shift is structural; here it is
    witnessed on the standard basis and on the supplied probes, and the
    report says so.
    """
    require_within("n_max", "n_max", n_max)
    vecs, seq_probes, report = _prologue(sd, "standard_verify", probes, seq_probes, n_max=n_max)

    basis = sd.I.apply_block(Mat.identity(sd.dim).entries)
    witness = next(({"basis_index": i} for i in range(sd.dim) if basis.probe(i).is_zero()), None)
    report.add(
        "embedding injective (nonzero on basis; structural for index placement)",
        witness is None,
        bound=sd.dim,
        witness=witness,
    )

    witness = first_witness(
        seq_probes,
        lambda x: {"probe": fsvec_to_json(x)} if not x.is_zero() and sd.U.apply(x).is_zero() else None,
    )
    report.add(
        "forward map injective on probes (structural for the shift)",
        witness is None,
        bound=len(seq_probes),
        witness=witness,
    )

    # each probe is projected once, for both the idempotence and the range check
    projected = [(x, sd.P.apply(x)) for x in seq_probes]

    def not_fixed(pair: tuple[FsVec, FsVec]) -> Optional[dict]:
        x, once = pair
        if sd.P.apply(once) != once:
            return {"probe": fsvec_to_json(x), "projected": fsvec_to_json(once)}

    witness = first_witness(projected, not_fixed)
    report.add("projection idempotent on probes", witness is None, bound=len(seq_probes), witness=witness)

    # the dilation equation at n = 0 is P I x = I x, so its first witness,
    # if at n = 0, is the first embedded vector that P does not fix
    dilation = _compression_witness(sd, vecs, 0, n_max)

    def off_origin(pair: tuple[FsVec, FsVec]) -> Optional[dict]:
        x, image = pair
        if any(k != 0 for k in image.indices()):
            return {"probe": fsvec_to_json(x), "projected": fsvec_to_json(image)}

    witness = first_witness(projected, off_origin)
    if witness is None and dilation is not None and dilation["n"] == 0:
        witness = {"vector": dilation["probe"]}
    report.add(
        "range: projection lands at index 0 and fixes embedded vectors",
        witness is None,
        bound=len(seq_probes) + len(vecs),
        witness=witness,
    )

    report.add(
        "dilation equation I T^n x = P U^n I x (0 <= n <= bound)",
        dilation is None,
        bound=n_max,
        witness=dilation,
    )
    return report


def standard_minimality_check(sd: Dilation, n_max: int) -> Report:
    """Certify that iterated shifts of embedded vectors reach every basis element.

    For each n <= n_max and ambient basis vector e_i, U^n I e_i must equal
    the one-sided basis element supported at n with value e_i; this shows
    the span of {U^n I x} exhausts all finitely supported sequences up to
    index n_max.
    """
    require_within("n_max", "n_max", n_max)
    report = Report(suite="standard_minimality", config={"n_max": n_max, "dim": sd.dim})
    image = sd.I.apply_block(Mat.identity(sd.dim).entries)
    mismatches = []
    for n in range(n_max + 1):
        expected = basis_block(sd.dim, n)
        mismatches += [(i, n, got, want) for i, got, want in differing_probes(image, expected)]
        image = sd.U.apply(image)
    # the witness runs basis index first, then n
    first = min(mismatches, key=lambda m: m[:2], default=None)
    report.add(
        "minimality: U^n I e_i equals the basis element at index n",
        first is None,
        bound=n_max,
        witness=lambda: {
            "n": first[1],
            "basis_index": first[0],
            "got": fsvec_to_json(first[2]),
            "expected": fsvec_to_json(first[3]),
        },
        detail=f"{(n_max + 1) * sd.dim} basis elements certified",
    )
    return report


# ----------------------------------------------------------------------
# two-parameter variant on grids


def ando_build(T: Mat, S: Mat) -> Dilation:
    """Commuting grid shifts dilating a commuting pair (T, S).

    U shifts rows down, V shifts columns right, the embedding places a
    vector at (0,0), and the projection collapses the grid through
    T^n S^m per cell.
    """
    require_square(T)
    require_square(S, "S")
    if T.rows != S.rows:
        raise DimensionMismatch(f"T and S act on different spaces: {T.rows} vs {S.rows}")
    if T * S != S * T:
        raise NonCommuting(T * S - S * T)
    d = T.rows
    return Dilation(
        T=T,
        I=EmbedI(d, Domain.GRID),
        U=GridDown(d),
        P=ProjAndo(T, S),
        S=S,
        V=GridRight(d),
    )


def ando_verify(
    av: Dilation,
    probes: Sequence[Sequence],
    n_max: int,
    m_max: int,
    seq_probes: Optional[Sequence[FsVec]] = None,
) -> Report:
    """Two-parameter compression, both single-parameter compressions, and
    the shift-exchange identity realized by prepending zero rows/columns."""
    require_within("n_max", "n_max", n_max)
    require_within("m_max", "m_max", m_max)
    vecs, seq_probes, report = _prologue(
        av, "ando_verify", probes, seq_probes, n_max=n_max, m_max=m_max
    )

    # The starts are the cells (V^m I x, I S^m x) for m <= m_max, on the
    # block of all probes; the witnesses run probe first, then n, then m.
    # The single-parameter compressions are the cells with m = 0 < n and
    # with n = 0 < m.
    s_step = Componentwise(av.S, Domain.GRID)
    starts = [(av.I.apply_block(vecs),) * 2]
    for _ in range(m_max):
        y, z = starts[-1]
        starts.append((av.V.apply(y), s_step.apply(z)))
    mismatches = compression_mismatches(av.T, av.U, av.P, starts, n_max)
    witness = u_witness = v_witness = None
    for n, m, j, projected, expected in sorted(mismatches, key=lambda t: (t[2], t[0], t[1])):
        x = vecs[j]
        if witness is None:
            witness = {
                "n": n,
                "m": m,
                "probe": vec_to_json(x),
                "projected": fsvec_to_json(projected),
                "expected": fsvec_to_json(expected),
            }
        if u_witness is None and m == 0 < n:
            u_witness = {"n": n, "probe": vec_to_json(x)}
        if v_witness is None and n == 0 < m:
            v_witness = {"m": m, "probe": vec_to_json(x)}
    report.add(
        "two-parameter compression I T^n S^m x = P U^n V^m I x",
        witness is None,
        bound=max(n_max, m_max),
        witness=witness,
    )
    report.add(
        "single-parameter compression P U^n I x = I T^n x",
        u_witness is None,
        bound=n_max,
        witness=u_witness,
    )
    report.add(
        "single-parameter compression P V^m I x = I S^m x",
        v_witness is None,
        bound=m_max,
        witness=v_witness,
    )

    prepend_zero_row, prepend_zero_column = GridDown(av.dim), GridRight(av.dim)

    def exchange_fails(x: FsVec) -> Optional[dict]:
        down = av.U.apply(x)
        right = av.V.apply(x)
        if prepend_zero_column.apply(down) != prepend_zero_row.apply(right):
            return {"probe": fsvec_to_json(x), "identity": "prepend"}
        if av.V.apply(down) != av.U.apply(right):
            return {"probe": fsvec_to_json(x), "identity": "exchange"}

    witness = first_witness(seq_probes, exchange_fails)
    report.add(
        "shift exchange: zero-column-prepended U x equals zero-row-prepended V x, and U V = V U",
        witness is None,
        bound=len(seq_probes),
        witness=witness,
    )
    return report
