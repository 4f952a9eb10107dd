"""Numerical verification engine for weak almost contact metric structures.

The package validates the defining axioms of a structure (phi, Q, xi, eta, g)
with Q xi = nu xi on a coordinate chart, computes its derived tensors, runs a
registry of named residual checks, and implements the constructive procedures
(homothetic deformation, Sasakian extraction, product construction, contact
vector field test).  All derivatives are exact dual-number forward-mode; all
verdicts are sup-norm residual comparisons over a deterministic sample plan.

The package re-exports nothing, and importing it imports no submodule and no
numpy: names are imported from their modules (`from wact.structure import
validate`, `from wact import structure`).  That lets `wact.cli` run its first
statement before numpy loads: the command line starts numpy's OpenBLAS on one
thread unless OPENBLAS_NUM_THREADS is already set.  The library itself leaves
the environment alone.
"""

__version__ = "0.1.0"
