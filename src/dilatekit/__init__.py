"""dilatekit: exact construction and verification of dilations of linear maps.

Everything runs over arbitrary-precision rationals; every identity check
in the package is an exact equality, never a tolerance.
"""

from .finite import (
    NDilation,
    NonSimilarPair,
    PreconditionFailed,
    SchurFamily,
    halmos_build,
    ndilation_build,
    ndilation_verify,
    nonsimilar_pair,
    schur_build,
)
from .finsupp import Domain, DomainMismatch, FsVec
from .harness import SuiteConfig, generate_instance, run_suites
from .intertwine import (
    IntertwinePair,
    NotIntertwining,
    RangeViolation,
    certification_report,
    lift_intertwiner,
    make_pair,
    verify_lift,
)
from .matrix import (
    DimensionMismatch,
    Mat,
    MatrixError,
    NonSquareMatrix,
    SingularMatrix,
    Vec,
    rref_image_kernel,
)
from .report import Check, Report
from .seqops import (
    ColumnBlocks,
    Componentwise,
    Compose,
    CoordProj0,
    EmbedI,
    GridDown,
    GridRight,
    PowerOp,
    ProjAndo,
    ProjStd,
    SchafferU,
    SchafferVInv,
    SeqOp,
    ShiftBilat,
    ShiftRight,
)
from .sequence import (
    Dilation,
    NonCommuting,
    ando_build,
    ando_verify,
    check_inverse_pair,
    schaffer_build,
    schaffer_verify,
    standard_build,
    standard_minimality_check,
    standard_verify,
)
from .serialize import ParseError, DenominatorZero, parse_instance_file
from .wold import NotInjective, WoldDecomposition, eventual_image, verify_wold, wold_decompose

__version__ = "0.1.0"
