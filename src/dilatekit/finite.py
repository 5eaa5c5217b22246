"""Finite-dimensional dilations: 2x2 block inverses and the N-step extension.

All constructions here produce an explicit block matrix U together with a
closed-form inverse. The constructors return the closed form as written;
`inverse_holds` multiplies the two out, so a wrong closed form is a failed
check rather than an error at construction. The four two-block
families are parameterized by which block is required invertible, with
the complementary Schur complement governing invertibility of the whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .finsupp import Domain
from .matrix import Mat, NonSquareMatrix, SingularMatrix, Vec, require_square
from .report import INCONCLUSIVE, Check, Report
from .seqops import BlockDense, CoordProj0, EmbedI
from .sequence import _probe_vecs, compression_mismatches
from .serialize import mat_to_json, vec_to_json

NOT_SIMILAR = "not_similar"
INCONCLUSIVE_VERDICT = "inconclusive"


class PreconditionFailed(ValueError):
    """A required block or Schur complement is singular; `which` names it."""

    def __init__(self, which: str):
        super().__init__(f"precondition failed: {which} is not invertible")
        self.which = which


def inverse_holds(built) -> bool:
    """U * U_inv = U_inv * U = I for a built dilation with fields U, U_inv."""
    eye = Mat.identity(built.U.rows)
    return built.U * built.U_inv == eye and built.U_inv * built.U == eye


# ----------------------------------------------------------------------
# plain two-block dilation


@dataclass(frozen=True)
class HalmosDilation:
    """U = [[T, I], [I, 0]] with inverse [[0, I], [I, -T]]."""

    T: Mat
    U: Mat
    U_inv: Mat


def halmos_build(T: Mat) -> HalmosDilation:
    require_square(T)
    d = T.rows
    eye = Mat.identity(d)
    zero = Mat.zeros(d, d)
    U = Mat.block([[T, eye], [eye, zero]])
    return HalmosDilation(T=T, U=U, U_inv=Mat.block([[zero, eye], [eye, -T]]))


# ----------------------------------------------------------------------
# the four Schur-complement families

SCHUR_CLASSES = ("i", "ii", "iii", "iv")


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
    """
    if class_tag not in SCHUR_CLASSES:
        raise ValueError(f"unknown class {class_tag!r}, expected one of {SCHUR_CLASSES}")
    d = require_square(T).rows
    for name, block in (("B", B), ("C", C), ("D", D)):
        require_square(block, name)
        if block.rows != d:
            raise NonSquareMatrix(f"{name} must be {d}x{d} to match T")

    if class_tag == "i":
        Ti = _inv_or_fail(T, "T")
        schur = D - C * Ti * B
        Si = _inv_or_fail(schur, "D - C T^-1 B")
        # Top-left entry carries the full sandwich T^-1 B (..)^-1 C T^-1;
        # truncating the trailing C T^-1 factor breaks U * U_inv = I.
        U_inv = Mat.block(
            [
                [Ti + Ti * B * Si * C * Ti, -(Ti * B * Si)],
                [-(Si * C * Ti), Si],
            ]
        )
    elif class_tag == "ii":
        Di = _inv_or_fail(D, "D")
        schur = T - B * Di * C
        Si = _inv_or_fail(schur, "T - B D^-1 C")
        U_inv = Mat.block(
            [
                [Si, -(Si * B * Di)],
                [-(Di * C * Si), Di + Di * C * Si * B * Di],
            ]
        )
    elif class_tag == "iii":
        Bi = _inv_or_fail(B, "B")
        schur = C - D * Bi * T
        Si = _inv_or_fail(schur, "C - D B^-1 T")
        U_inv = Mat.block(
            [
                [-(Si * D * Bi), Si],
                [Bi + Bi * T * Si * D * Bi, -(Bi * T * Si)],
            ]
        )
    else:
        Ci = _inv_or_fail(C, "C")
        schur = B - T * Ci * D
        Si = _inv_or_fail(schur, "B - T C^-1 D")
        U_inv = Mat.block(
            [
                [-(Ci * D * Si), Ci + Ci * D * Si * T * Ci],
                [Si, -(Si * T * Ci)],
            ]
        )

    U = Mat.block([[T, B], [C, D]])
    return SchurFamily(class_tag=class_tag, T=T, B=B, C=C, D=D, schur=schur, U=U, U_inv=U_inv)


# ----------------------------------------------------------------------
# a pair of non-similar two-block dilations


@dataclass(frozen=True)
class NonSimilarPair:
    """Two invertible two-block dilations of T with a trace comparison.

    A1 = [[T, T-I], [T+I, T]] has trace 2*tr(T); A2 = [[T, I], [I, 0]] has
    trace tr(T). Trace is a similarity invariant, so unequal traces prove
    the pair is not similar. When tr(T) = 0 the traces agree and the
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
    require_square(T)
    d = T.rows
    eye, zero = Mat.identity(d), Mat.zeros(d, d)
    A1 = Mat.block([[T, T - eye], [T + eye, T]])
    A2 = Mat.block([[T, eye], [eye, zero]])
    # A1's blocks commute and T^2 - (T-I)(T+I) = I, which gives its inverse
    A1_inv = Mat.block([[T, eye - T], [-(T + eye), T]])
    A2_inv = Mat.block([[zero, eye], [eye, -T]])
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
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
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


def ndilation_verify(nd: NDilation, probes: Sequence[Vec], k_max: Optional[int] = None) -> Report:
    """The N-dilation's report: its closed-form inverse, and the compression
    identity P U^k I = T^k on every probe for all k <= N as one check whose
    witness is the first (k, probe) that fails.

    Past the guaranteed range, N < k <= k_max (N + 1 when None), the outcome
    per k is recorded as inconclusive data under `beyond_range`, and
    `breaks_at_n_plus_1` says whether the identity broke at N + 1: it
    usually does there but is not required to. The stacked space is read as
    one-sided families supported on {0..N}, so this is the compression
    identity of the sequence layer with U acting blockwise and P reading
    coordinate 0.
    """
    k_max = nd.N + 1 if k_max is None else k_max
    if k_max < nd.N + 1:
        raise ValueError(f"k_max must be at least N+1 = {nd.N + 1}, got {k_max}")
    report = Report(
        suite="ndilation",
        data={"U": partial(mat_to_json, nd.U), "U_inv": partial(mat_to_json, nd.U_inv)},
    )
    report.add(
        "closed-form inverse: U * U_inv = U_inv * U = I",
        inverse_holds(nd),
        witness=lambda: {"N": nd.N, "T": mat_to_json(nd.T)},
    )

    d = nd.dim
    probes = _probe_vecs(probes, d)
    starts = [(EmbedI(d).apply(x),) * 2 for x in probes]
    U, P = BlockDense(nd.U, d), CoordProj0(d, Domain.UNINAT)
    witnesses = {}  # the first mismatch for each k
    for k, i, projected, expected in compression_mismatches(nd.T, U, P, starts, k_max):
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
