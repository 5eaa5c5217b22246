"""Finite-dimensional dilations: 2x2 block inverses and the N-step extension.

All constructions here produce an explicit block matrix U together with a
closed-form inverse, and every constructor multiplies the two out and
insists on the exact identity before returning. The four two-block
families are parameterized by which block is required invertible, with
the complementary Schur complement governing invertibility of the whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .matrix import Mat, NonSquareMatrix, SingularMatrix, Vec, require_square, vec
from .report import INCONCLUSIVE, Check, Report
from .serialize import mat_to_json, vec_to_json

NOT_SIMILAR = "not_similar"
INCONCLUSIVE_VERDICT = "inconclusive"


class ConstructionError(RuntimeError):
    """A closed form failed its own defining identity (should never happen)."""


class PreconditionFailed(ValueError):
    """A required block or Schur complement is singular; `which` names it."""

    def __init__(self, which: str):
        super().__init__(f"precondition failed: {which} is not invertible")
        self.which = which


def _is_inverse_pair(U: Mat, U_inv: Mat) -> bool:
    eye = Mat.identity(U.rows)
    return U * U_inv == eye and U_inv * U == eye


def _assert_inverse(U: Mat, U_inv: Mat, label: str) -> tuple[Mat, Mat]:
    """Multiply the pair out and require the identity; the pair returned is
    the proof that the built object records as `inverse_proof`."""
    if not _is_inverse_pair(U, U_inv):
        raise ConstructionError(f"{label}: closed-form inverse failed U*U_inv = U_inv*U = I")
    return U, U_inv


def inverse_holds(built) -> bool:
    """U * U_inv = U_inv * U = I for a built dilation with fields U, U_inv.

    The builder's proof is read when it covers these very matrix objects;
    otherwise (an object assembled or replaced by hand) the products are
    formed again.
    """
    proof = built.inverse_proof
    if proof is not None and proof[0] is built.U and proof[1] is built.U_inv:
        return True
    return _is_inverse_pair(built.U, built.U_inv)


# ----------------------------------------------------------------------
# plain two-block dilation


@dataclass(frozen=True)
class HalmosDilation:
    """U = [[T, I], [I, 0]] with inverse [[0, I], [I, -T]]."""

    T: Mat
    U: Mat
    U_inv: Mat
    inverse_proof: Optional[tuple[Mat, Mat]] = field(default=None, repr=False, compare=False)


def halmos_build(T: Mat) -> HalmosDilation:
    require_square(T)
    d = T.rows
    eye = Mat.identity(d)
    zero = Mat.zeros(d, d)
    U = Mat.block([[T, eye], [eye, zero]])
    U_inv = Mat.block([[zero, eye], [eye, -T]])
    proof = _assert_inverse(U, U_inv, "two-block dilation")
    return HalmosDilation(T=T, U=U, U_inv=U_inv, inverse_proof=proof)


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
    inverse_proof: Optional[tuple[Mat, Mat]] = field(default=None, repr=False, compare=False)


def _inv_or_fail(m: Mat, which: str) -> Mat:
    try:
        return m.inverse()
    except SingularMatrix:
        raise PreconditionFailed(which) from None


def schur_build(class_tag: str, T: Mat, B: Mat, C: Mat, D: Mat) -> SchurFamily:
    """Build U = [[T, B], [C, D]] with the closed-form inverse of the class.

    Class (i) requires T and D - C T^-1 B invertible; (ii) D and
    T - B D^-1 C; (iii) B and C - D B^-1 T; (iv) C and B - T C^-1 D. The
    constructor multiplies U by the closed form and requires the exact
    identity, so the formulas are self-checking.
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
    proof = _assert_inverse(U, U_inv, f"class ({class_tag})")
    return SchurFamily(
        class_tag=class_tag, T=T, B=B, C=C, D=D, schur=schur, U=U, U_inv=U_inv, inverse_proof=proof
    )


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
    eye = Mat.identity(d)
    A1 = Mat.block([[T, T - eye], [T + eye, T]])
    A2 = Mat.block([[T, eye], [eye, Mat.zeros(d, d)]])
    # A1 is always invertible: its commuting-block determinant is
    # T^2 - (T+I)(T-I) = I. The dense oracle makes that concrete.
    A1_inv = A1.inverse()
    A2_inv = A2.inverse()
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
    inverse_proof: Optional[tuple[Mat, Mat]] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.T.rows

    def embed(self, x: Sequence) -> Vec:
        """(x, 0, ..., 0) in the stacked space."""
        v = vec(x)
        if len(v) != self.dim:
            raise NonSquareMatrix(f"expected a vector of length {self.dim}")
        return v + (Fraction(0),) * (self.N * self.dim)

    def first_block(self, y: Sequence) -> Vec:
        return tuple(y[: self.dim])


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
    U_inv = Mat.block(inv_grid)

    proof = _assert_inverse(U, U_inv, f"N-dilation (N={N})")
    return NDilation(T=T, N=N, U=U, U_inv=U_inv, inverse_proof=proof)


def ndilation_verify(nd: NDilation, probes: Sequence[Vec], k_max: Optional[int] = None) -> Report:
    """The N-dilation's report: its closed-form inverse, and the compression
    identity P U^k I = T^k on every probe for all k <= N as one check whose
    witness is the first (k, probe) that fails.

    Past the guaranteed range, N < k <= k_max (N + 1 when None), the outcome
    per k is recorded as inconclusive data under `beyond_range`, and
    `breaks_at_n_plus_1` says whether the identity broke at N + 1: it
    usually does there but is not required to. Both orbits are carried
    forward one step per k, U^k I x by U and T^k x by one T.apply.
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

    probes = [vec(x) for x in probes]
    images = [nd.embed(x) for x in probes]
    t_images = list(probes)
    first_witness = None
    beyond_range = []
    for k in range(1, k_max + 1):
        witness = None
        for i, x in enumerate(probes):
            images[i] = nd.U.apply(images[i])
            t_images[i] = nd.T.apply(t_images[i])
            if witness is None and nd.first_block(images[i]) != t_images[i]:
                witness = {
                    "k": k,
                    "probe": vec_to_json(x),
                    "first_block": vec_to_json(nd.first_block(images[i])),
                    "expected": vec_to_json(t_images[i]),
                }
        if k <= nd.N:
            if first_witness is None:
                first_witness = witness
            continue
        if k == nd.N + 1:
            report.data["breaks_at_n_plus_1"] = witness is not None
        held = "held on all probes" if witness is None else "broke on a probe"
        beyond = Check(
            f"compression beyond guaranteed range (k={k})",
            INCONCLUSIVE,
            witness=witness,
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
