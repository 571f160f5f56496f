"""Exact workbench for the spin-Brauer diagram algebra.

Diagrams on two rows of n vertices (ordered isolated vertices, same-row arcs,
and a through-string bijection) multiply by stacking; every diagram also acts
as an exact sparse linear map on n tensor copies of the N-dimensional
orthogonal space times the spinor factor, and the two structures are checked
against each other by the verification suite. All arithmetic is exact:
integer polynomials in the loop parameter delta and the field Q(sqrt2).
"""

from .scalars import DeltaPolynomial, RootTwoNumber
from .linalg import LinearMap, rank_of_vectors
from .diagrams import (
    AlgebraElement,
    CellTriple,
    DiagramError,
    SpinDiagram,
    cell_decode,
    cell_encode,
    diagram_key,
    emit_diagram,
    enumerate_S,
    enumerate_basis,
    enumerate_size_le2_partitions,
    identity_diagram,
    involution,
    parse_diagram,
    pretty,
)
from .multiply import (
    StitchResolution,
    clifford_normalize,
    multiply_diagrams,
    multiply_elements,
    stitch_and_resolve,
)
from .realization import (
    SpaceSpec,
    act_gamma,
    act_so,
    commutant_dimension,
    realize_diagram,
    so_basis,
)
from .cellular import (
    CellFormError,
    PhiValue,
    irreducible_indices,
    modmult_check,
    phi_ell,
)
from .verify import CHECKS, VerificationReport

__version__ = "0.1.0"
