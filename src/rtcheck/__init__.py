"""rtcheck: factorized scattering with a point-like impurity, verified.

Momentum-dependent bulk S-matrices, reflection/transmission defect data,
the doubled-space impurity construction, a Fock-space normal-ordering
engine for n-particle amplitudes, and the Hamiltonian hierarchy, with the
exactly solvable delta-impurity model as the built-in reference.
"""

from .config import AssembledModel, ModelConfig, build_model, parse_config
from .defect import DefectPair, ProjectedDefect, delta_defect
from .deltamodel import DeltaModel
from .doubling import DoubledModel, build_doubled_model, double_S_bulk
from .fock import (
    AmplitudeExpression,
    OneParticleKernel,
    normal_order_vev,
)
from .report import TOOLKIT_VERSION as __version__
from .report import VerificationReport, emit_report, parse_report
from .smatrix import BulkSMatrix, identity_S, permutation_S, rational_S, sample_momenta
from .suite import available_checks, default_checks, run_suite

__all__ = [
    "AmplitudeExpression",
    "AssembledModel",
    "BulkSMatrix",
    "DefectPair",
    "DeltaModel",
    "DoubledModel",
    "ModelConfig",
    "OneParticleKernel",
    "ProjectedDefect",
    "VerificationReport",
    "available_checks",
    "build_doubled_model",
    "build_model",
    "default_checks",
    "delta_defect",
    "double_S_bulk",
    "emit_report",
    "identity_S",
    "normal_order_vev",
    "parse_config",
    "parse_report",
    "permutation_S",
    "rational_S",
    "run_suite",
    "sample_momenta",
    "__version__",
]
