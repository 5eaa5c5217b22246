"""Finite-dimensional dilations: 2x2 block inverses and the N-step extension.

All constructions here produce an explicit block matrix U together with a
closed-form inverse. The constructors return the closed form as written;
`inverse_holds` multiplies them out, so a wrong closed form is a failed
check rather than an error at construction. The Halmos dilation is the
N-dilation at N = 1. The four Schur-complement families are parameterized
by which block is required invertible, with the complementary Schur
complement governing invertibility of the whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .finsupp import Domain
from .matrix import DimensionMismatch, Mat, SingularMatrix, Vec, require_square
from .report import INCONCLUSIVE, Check, Report
from .seqops import BlockDense, CoordProj0, EmbedI
from .sequence import _probe_vecs, compression_mismatches
from .serialize import mat_to_json, vec_to_json
from .sizes import require_above, require_within

NOT_SIMILAR = "not_similar"
INCONCLUSIVE_VERDICT = "inconclusive"


class PreconditionFailed(ValueError):
    """A required block or Schur complement is singular; `which` names it."""

    def __init__(self, which: str):
        super().__init__(f"precondition failed: {which} is not invertible")
        self.which = which


def inverse_holds(U: Mat, U_inv: Mat) -> bool:
    """U * U_inv = U_inv * U = I for a square U.

    Only U * U_inv is formed. Every U built here is square, and for a
    square U, U V = I implies V U = I: U V = I makes U surjective, so U is
    invertible and V = U^-1 U V = U^-1.
    """
    return U * U_inv == Mat.identity(U.rows)


# ----------------------------------------------------------------------
# the four Schur-complement families

# class -> the blocks of U = [[T, B], [C, D]] reordered so that the one
# required invertible is top-left, and whether the block rows and the block
# columns were swapped to put it there
_SCHUR_PIVOTS = {
    "i": ("TBCD", False, False),
    "ii": ("DCBT", True, True),
    "iii": ("BTDC", False, True),
    "iv": ("CDTB", True, False),
}
SCHUR_CLASSES = tuple(_SCHUR_PIVOTS)


@dataclass(frozen=True)
class SchurFamily:
    class_tag: str
    T: Mat
    B: Mat
    C: Mat
    D: Mat
    schur: Mat
    U: Mat
    U_inv: Mat


def _inv_or_fail(m: Mat, which: str) -> Mat:
    try:
        return m.inverse()
    except SingularMatrix:
        raise PreconditionFailed(which) from None


def schur_build(class_tag: str, T: Mat, B: Mat, C: Mat, D: Mat) -> SchurFamily:
    """Build U = [[T, B], [C, D]] with the closed-form inverse of the class.

    Class (i) requires T and D - C T^-1 B invertible; (ii) D and
    T - B D^-1 C; (iii) B and C - D B^-1 T; (iv) C and B - T C^-1 D.
    Classes (ii)-(iv) are class (i) on U with its block rows and/or block
    columns swapped, so one formula serves all four.
    """
    if class_tag not in SCHUR_CLASSES:
        raise ValueError(f"unknown class {class_tag!r}, expected one of {SCHUR_CLASSES}")
    d = require_square(T).rows
    blocks = {"T": T, "B": B, "C": C, "D": D}
    for name in "BCD":
        require_square(blocks[name], name)
        if blocks[name].rows != d:
            raise DimensionMismatch(f"{name} must be {d}x{d} to match T")

    # class (i) on U' = [[W, X], [Y, Z]], the blocks of U reordered
    order, rows_swapped, cols_swapped = _SCHUR_PIVOTS[class_tag]
    W, X, Y, Z = (blocks[name] for name in order)
    Wi = _inv_or_fail(W, order[0])
    WiX, YWi = Wi * X, Y * Wi
    schur = Z - YWi * X
    Si = _inv_or_fail(schur, f"{order[3]} - {order[2]} {order[0]}^-1 {order[1]}")
    WiXSi = WiX * Si
    # Top-left entry carries the full sandwich W^-1 X (..)^-1 Y W^-1;
    # truncating the trailing Y W^-1 factor breaks U * U_inv = I.
    inv = [[Wi + WiXSi * YWi, -WiXSi], [-(Si * YWi), Si]]
    if cols_swapped:  # U = U' J with J the block swap, so U^-1 = J U'^-1
        inv.reverse()
    if rows_swapped:  # U = J U', so U^-1 = U'^-1 J
        inv = [row[::-1] for row in inv]
    U = Mat.block([[T, B], [C, D]])
    return SchurFamily(class_tag, **blocks, schur=schur, U=U, U_inv=Mat.block(inv))


# ----------------------------------------------------------------------
# a pair of non-similar two-block dilations


@dataclass(frozen=True)
class NonSimilarPair:
    """Two invertible two-block dilations of T with a trace comparison.

    A1 = [[T, T-I], [T+I, T]] has trace 2*tr(T); the Halmos dilation
    A2 = [[T, I], [I, 0]] has trace tr(T). Trace is a similarity invariant,
    so unequal traces prove the pair is not similar. When tr(T) = 0 the traces agree and the
    comparison decides nothing, hence the inconclusive verdict.
    """

    T: Mat
    A1: Mat
    A2: Mat
    A1_inv: Mat
    A2_inv: Mat
    verdict: str
    trace_a1: Fraction
    trace_a2: Fraction


def nonsimilar_pair(T: Mat) -> NonSimilarPair:
    halmos = halmos_build(T)
    A2, A2_inv = halmos.U, halmos.U_inv
    eye = Mat.identity(T.rows)
    A1 = Mat.block([[T, T - eye], [T + eye, T]])
    # A1's blocks commute and T^2 - (T-I)(T+I) = I, which gives its inverse
    A1_inv = Mat.block([[T, eye - T], [-(T + eye), T]])
    t1, t2 = A1.trace(), A2.trace()
    verdict = NOT_SIMILAR if t1 != t2 else INCONCLUSIVE_VERDICT
    return NonSimilarPair(
        T=T, A1=A1, A2=A2, A1_inv=A1_inv, A2_inv=A2_inv, verdict=verdict, trace_a1=t1, trace_a2=t2
    )


# ----------------------------------------------------------------------
# N-step dilation on a stack of N+1 copies of the ambient space


@dataclass(frozen=True)
class NDilation:
    """Invertible U on (N+1) stacked copies whose k-th power compresses to T^k.

    The compression P U^k I equals T^k for 1 <= k <= N where I embeds into
    the first block coordinate and P reads it back; the guarantee stops at
    N by design.
    """

    T: Mat
    N: int
    U: Mat
    U_inv: Mat

    @property
    def dim(self) -> int:
        return self.T.rows


def ndilation_build(T: Mat, N: int) -> NDilation:
    """Assemble the cyclic block pattern and its closed-form inverse.

    U has T in the top-left block, an identity in the top-right corner,
    and identities on the block subdiagonal. Its inverse has identities on
    the block superdiagonal, an identity in the bottom-left corner, and -T
    next to it.
    """
    require_square(T)
    require_within("N", "N", N)
    d = T.rows
    eye = Mat.identity(d)
    zero = Mat.zeros(d, d)

    grid = [[zero for _ in range(N + 1)] for _ in range(N + 1)]
    grid[0][0] = T
    grid[0][N] = eye
    for k in range(1, N + 1):
        grid[k][k - 1] = eye
    U = Mat.block(grid)

    inv_grid = [[zero for _ in range(N + 1)] for _ in range(N + 1)]
    for k in range(N):
        inv_grid[k][k + 1] = eye
    inv_grid[N][0] = eye
    inv_grid[N][1] = -T
    return NDilation(T=T, N=N, U=U, U_inv=Mat.block(inv_grid))


def halmos_build(T: Mat) -> NDilation:
    """The Halmos dilation: the N-dilation at N = 1, U = [[T, I], [I, 0]]
    with inverse [[0, I], [I, -T]]."""
    return ndilation_build(T, 1)


def ndilation_verify(nd: NDilation, probes: Sequence[Vec], k_max: Optional[int] = None) -> Report:
    """The N-dilation's report: its closed-form inverse, and the compression
    identity P U^k I = T^k on every probe for all k <= N as one check whose
    witness is the first (k, probe) that fails.

    Past the guaranteed range, N < k <= k_max (N + 1 when None), the outcome
    per k is recorded as inconclusive data under `beyond_range`, and
    `breaks_at_n_plus_1` says whether the identity broke at N + 1: on
    any nonzero probe x it always does, since the first block of
    U^(N+1) I x is T^(N+1) x + x. The stacked space is read as
    one-sided families supported on {0..N}, so this is the compression
    identity of the sequence layer with U acting blockwise and P reading
    coordinate 0.
    """
    require_within("k_max", "k_max", k_max)
    require_above("k_max", k_max, "N", nd.N)
    k_max = nd.N + 1 if k_max is None else k_max
    report = Report(
        suite="ndilation",
        data={"U": partial(mat_to_json, nd.U), "U_inv": partial(mat_to_json, nd.U_inv)},
    )
    report.add(
        "closed-form inverse: U * U_inv = U_inv * U = I",
        inverse_holds(nd.U, nd.U_inv),
        witness=lambda: {"N": nd.N, "T": mat_to_json(nd.T)},
    )

    d = nd.dim
    probes = _probe_vecs(probes, d)
    starts = [(EmbedI(d).apply_block(probes),) * 2]
    U, P = BlockDense(nd.U, d), CoordProj0(d, Domain.UNINAT)
    witnesses = {}  # the first mismatch for each k
    for k, _, i, projected, expected in compression_mismatches(nd.T, U, P, starts, k_max):
        if k not in witnesses:
            witnesses[k] = {
                "k": k,
                "probe": vec_to_json(probes[i]),
                "first_block": vec_to_json(projected.coeff(0)),
                "expected": vec_to_json(expected.coeff(0)),
            }
    first_witness = next((witnesses[k] for k in range(1, nd.N + 1) if k in witnesses), None)
    report.data["breaks_at_n_plus_1"] = nd.N + 1 in witnesses
    beyond_range = []
    for k in range(nd.N + 1, k_max + 1):
        held = "broke on a probe" if k in witnesses else "held on all probes"
        beyond = Check(
            f"compression beyond guaranteed range (k={k})",
            INCONCLUSIVE,
            witness=witnesses.get(k),
            detail=f"identity {held}",
        )
        beyond_range.append(beyond.as_dict())
    report.add(
        "compression T^k = P U^k I for all k <= N on probes",
        first_witness is None,
        bound=nd.N,
        witness=first_witness,
        detail="" if probes else "vacuous: no probes supplied",
    )
    report.data["beyond_range"] = beyond_range
    return report
