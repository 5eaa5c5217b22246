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

from .finsupp import Domain, DomainMismatch, FsVec, require_same_space, space_name
from .matrix import DimensionMismatch, Mat, Vec, require_square, vec
from .report import Report, first_witness
from .seqops import (
    Componentwise,
    Compose,
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
    Space,
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


def space_of(x: FsVec) -> Space:
    """The space (domain, dim) of a family that an operator is to act on."""
    if not isinstance(x, FsVec):
        raise DomainMismatch(f"operators act on families, got {type(x).__name__}")
    return x.domain, x.dim


def _require_into_itself(U: SeqOp, space: Space) -> None:
    """U is to be applied to its own images: it must map `space` into itself."""
    if U.codomain(space) != space:
        raise DomainMismatch(f"{type(U).__name__} does not map {space_name(*space)} into itself")


def image_differences(lhs: SeqOp, rhs: SeqOp, x: FsVec) -> Optional[tuple[FsVec, FsVec]]:
    """(lhs x, rhs x) if they differ, else None. Each side's spaces are
    checked and it acts on the columns of x; the images are built as
    ``FsVec`` only when they differ."""
    space, width = space_of(x), x.width
    left_space = lhs.codomain(space)
    left = lhs.act(x.columns, space, width)
    right_space = rhs.codomain(space)
    right = rhs.act(x.columns, space, width)
    require_same_space((*left_space, width), (*right_space, width))
    if left == right:
        return None
    return FsVec._raw(*left_space, left, width), FsVec._raw(*right_space, right, width)


def compression_mismatches(
    T: Mat, U: SeqOp, P: SeqOp, starts: Sequence[tuple[FsVec, FsVec]], n_max: int
) -> Iterator[tuple[int, int, int, FsVec, FsVec]]:
    """Every (n, i, j, projected, expected) with P U^n y_i != T^n z_i on
    probe j, for 0 <= n <= n_max, in (n, i, j) order, over the start pairs
    of blocks (y_i, z_i).

    This is the compression identity of every dilation here: with
    y = z = I x it reads P U^n I x = I T^n x. Both sides are carried forward
    one step per n: y by U, and z by T acting componentwise on P's domain,
    independently of U and P. The spaces are checked once per start: z is
    in P's domain with T's dimension, P maps the space of y there, and U
    maps it into itself. Then both sides are plain canonical column dicts,
    each step applies each operator's column action once to a whole block
    of probes, and the sides are compared by one dict ``==``; ``FsVec``s
    are built only where they differ."""
    domain, d = P.domain, T.rows
    t_step = Componentwise(T, domain)
    for _, z in starts:
        t_step.codomain(space_of(z))
    spaces = []
    for y, z in starts:
        space = space_of(y)
        require_same_space((*P.codomain(space), y.width), (domain, d, z.width))
        if n_max:
            _require_into_itself(U, space)
        spaces.append((space, y.width))
    ys = [y.columns for y, _ in starts]
    zs = [z.columns for _, z in starts]
    z_space = t_step.space_in
    for n in range(n_max + 1):
        for i, (y, z, (space, width)) in enumerate(zip(ys, zs, spaces)):
            if n > 0:
                ys[i] = y = U.act(y, space, width)
                zs[i] = z = t_step.act(z, z_space, width)
            projected = P.act(y, space, width)
            if projected != z:
                got, want = FsVec._raw(domain, d, projected, width), FsVec._raw(domain, d, z, width)
                for j, got_j, want_j in differing_probes(got, want):
                    yield n, i, j, got_j, want_j


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

_IDENTITY = Compose(())


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

    def mismatch(round_trip: SeqOp, x: FsVec) -> Optional[dict]:
        images = image_differences(round_trip, _IDENTITY, x)
        if images is not None:
            return {"probe": fsvec_to_json(x), "result": fsvec_to_json(images[0])}

    report = Report(suite="inverse_pair")
    for name, round_trip in (("a(b(x)) = x", Compose((a, b))), ("b(a(x)) = x", Compose((b, a)))):
        witness = first_witness(probes, lambda x: mismatch(round_trip, x))
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

    # each probe is projected once, for both the idempotence and the range
    # check, as columns; FsVecs are built only for a witness
    P, projected = sd.P, []
    for x in seq_probes:
        space = space_of(x)
        projected.append((x, P.codomain(space), P.act(x.columns, space, x.width)))

    def as_fsvec(x: FsVec, space: Space, columns) -> dict:
        return fsvec_to_json(FsVec._raw(*space, columns, x.width))

    def not_fixed(item) -> Optional[dict]:
        x, space, once = item
        require_same_space((*P.codomain(space), x.width), (*space, x.width))
        if P.act(once, space, x.width) != once:
            return {"probe": fsvec_to_json(x), "projected": as_fsvec(x, space, once)}

    witness = first_witness(projected, not_fixed)
    report.add("projection idempotent on probes", witness is None, bound=len(seq_probes), witness=witness)

    # the dilation equation at n = 0 is P I x = I x, so its first witness,
    # if at n = 0, is the first embedded vector that P does not fix
    dilation = _compression_witness(sd, vecs, 0, n_max)

    def off_origin(item) -> Optional[dict]:
        x, space, image = item
        if any(k != 0 for k in image):
            return {"probe": fsvec_to_json(x), "projected": as_fsvec(x, space, image)}

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
    start = sd.I.apply_block(Mat.identity(sd.dim).entries)
    space, width, image = space_of(start), start.width, start.columns
    if n_max:
        _require_into_itself(sd.U, space)
    mismatches = []
    for n in range(n_max + 1):
        expected = basis_block(sd.dim, n)
        if image != expected.columns or space != space_of(expected):
            got = FsVec._raw(*space, image, width)
            mismatches += [(i, n, g, w) for i, g, w in differing_probes(got, expected)]
        if n < n_max:
            image = sd.U.act(image, space, width)
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

    # U x and V x are formed once per probe; the identities prepend a zero
    # column to U x and a zero row to V x, then apply V to U x and U to V x
    identities = (("prepend", GridRight(av.dim), GridDown(av.dim)), ("exchange", av.V, av.U))

    def exchange_fails(x: FsVec) -> Optional[dict]:
        down, right = av.U.apply(x), av.V.apply(x)
        for identity, after_down, after_right in identities:
            if after_down.apply(down) != after_right.apply(right):
                return {"probe": fsvec_to_json(x), "identity": identity}

    witness = first_witness(seq_probes, exchange_fails)
    report.add(
        "shift exchange: zero-column-prepended U x equals zero-row-prepended V x, and U V = V U",
        witness is None,
        bound=len(seq_probes),
        witness=witness,
    )
    return report
