"""Flag complexes from cross-polytope edge subdivisions and their gamma vectors."""

from .complexes import (
    FaceComplex,
    FlagComplex,
    antipode,
    cross_polytope,
    is_flag,
    is_isomorphic_under,
    join,
    link,
    subdivide_edge,
    subdivide_face_general,
)
from .polynomials import (
    FHGammaReport,
    IntPolynomial,
    f_poly,
    gamma_from_h,
    gamma_of,
    h_from_f,
    is_symmetric,
)
from .subdivision import (
    FaceClass,
    InducedSequence,
    SubdivisionSequence,
    SubdivisionStep,
    classify_face,
    extend,
    gamma_complex,
    induced_sequence,
    k_set,
    new_sequence,
    phi,
    random_sequence,
    verify_f_equals_gamma,
    w_set,
)
from .nestohedra import (
    BuildingSet,
    FlagOrdering,
    find_decomposition,
    find_flag_ordering,
    gamma_complex_of_ordering,
    graphical_building_set,
    interval_building_set,
    is_flag_building_set,
    nested_set_complex,
    nestohedron_report,
    ordering_to_sequence,
    power_set_building_set,
    random_flag_building_set,
    u_set,
    v_set,
    validate_building_set,
    validate_ordering,
    verify_ordering_equivalence,
)

__version__ = "0.1.0"
