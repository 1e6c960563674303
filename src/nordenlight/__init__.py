"""Exact verification engine for lightlike hypersurfaces of Kaehler-Norden
Lie algebras: connection and curvature derivation, lightlike frame
construction, and the curvature-symmetry audit, all in exact rational
arithmetic."""

__version__ = "0.1.0"

from .ambient import (
    AmbientGeometry,
    LieAlgebraSpec,
    NordenStructure,
    TrscStatus,
    build_ambient_geometry,
    constant_trsc,
    curvature,
    kaehler_check,
    levi_civita,
    norden_structure,
    validate_lie_algebra,
    validate_norden,
)
from .errors import (
    EngineError,
    HypothesisFailure,
    InternalInconsistency,
    ParseError,
    ValidationFailure,
)
from .exact import (
    DenseTensor,
    LinearSolution,
    format_rational,
    parse_rational,
)
from .hypersurface import (
    HypersurfaceSpec,
    LightlikeFrame,
    SecondFundamental,
    construct_screen,
    construct_transversal,
    gauss_weingarten,
    induce_and_classify,
    radical_transversal_check,
    umbilical_test,
    verify_frame_identities,
)
from .manifold_file import ManifoldFile, parse_manifold_file
from .pipeline import AmbientRun, BlockRun, Report, emit_report, run_ambient, run_block, run_pipeline
from .symmetry import (
    AuditVerdict,
    EinsteinFit,
    SymmetryFlags,
    almost_einstein_fit,
    induced_curvature_closed_form,
    induced_curvature_gauss,
    induced_ricci,
    locally_symmetric_check,
    pde_residuals,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
    symmetry_equivalence_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
