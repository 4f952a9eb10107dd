"""Numerical verification engine for weak almost contact metric structures.

The package validates the defining axioms of a structure (phi, Q, xi, eta, g)
with Q xi = nu xi on a coordinate chart, computes its derived tensors, runs a
registry of named residual checks, and implements the constructive procedures
(homothetic deformation, Sasakian extraction, product construction, contact
vector field test).  All derivatives are exact dual-number forward-mode; all
verdicts are sup-norm residual comparisons over a deterministic sample plan.
"""

from .calculus import (Connection, DerivedField, christoffel,
                       covariant_derivative, exterior_derivative, lie_bracket,
                       lie_derivative, nijenhuis)
from .chart import BaseChart, Chart, CounterStream, DEFAULT_PLAN, SamplePlan, sample
from .classify import (CHECK_IDS, CheckReport, CheckResult, Classification,
                       Session, classify, verify)
from .deform import (CvfResult, DeformParams, contact_vector_field, deform,
                     extract_sasakian, product_construction)
from .dual import Dual
from .errors import *  # noqa: F401,F403 -- the error module defines __all__-safe names
from .expr import ScalarExpr, parse
from .fileio import (bundled_names, bundled_path, load_bundled, load_plane,
                     load_structure, save_structure, structure_from_dict,
                     structure_to_dict)
from .structure import (DEFAULT_TOL, Structure, StructureJet, ValidationReport,
                        validate)
from .tensor import TensorField, TensorValue

__version__ = "0.1.0"
