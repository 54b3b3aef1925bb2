"""Simple nested fractals: harmonic structures, energies, Lipschitz norms."""

from .characteristics import DimensionReport, dimensions
from .energy import (EnergySequence, FunctionSpec, VertexFunction, energy_m,
                     energy_sequence, harmonic_extension, parse_function_spec,
                     random_corpus)
from .errors import (ConditionViolation, DegenerateStructure, FelError,
                     InvariantViolation, NoConvergence, PointCapExceeded,
                     ResolutionTooCoarse, SingularInterior, UnsupportedDimension)
from .harmonic import (ConductivityMatrix, HarmonicStructure, decimate, energy0,
                       from_off_diagonal, reproduce, solve_ndhs, unit_matrix)
from .ifs import (FractalSystem, Similitude, ValidationReport, build,
                  essential_fixed_points, validate)
from .lipschitz import (ExperimentSummary, LipschitzParams, NormReport,
                        b_coefficient, default_params, equivalence_experiment,
                        hoelder_estimate, norm_report)
from .presets import load_maps

__version__ = "0.1.0"

__all__ = [
    "ConditionViolation", "ConductivityMatrix", "DegenerateStructure",
    "DimensionReport", "EnergySequence", "ExperimentSummary", "FelError",
    "FractalSystem", "FunctionSpec", "HarmonicStructure", "InvariantViolation",
    "LipschitzParams", "NoConvergence", "NormReport", "PointCapExceeded",
    "ResolutionTooCoarse", "Similitude", "SingularInterior",
    "UnsupportedDimension", "ValidationReport", "VertexFunction",
    "b_coefficient", "build", "decimate", "default_params",
    "dimensions", "energy0", "energy_m", "energy_sequence",
    "equivalence_experiment", "essential_fixed_points", "from_off_diagonal",
    "harmonic_extension", "hoelder_estimate", "load_maps",
    "norm_report", "parse_function_spec", "random_corpus", "reproduce",
    "solve_ndhs", "unit_matrix", "validate",
]
