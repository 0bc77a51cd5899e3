"""Spectral ground-energy certificates and SoS witnesses for Hamiltonian k-XOR."""

__version__ = "0.1.0"

from .pauli import (  # noqa: F401
    PauliOp,
    PhasedPauli,
    SliceIndex,
    commutes,
    enumerate_slice,
    multiply,
    mul_words,
)
from .instances import (  # noqa: F401
    Constraint,
    GeneratorConfig,
    Instance,
    digest,
    generate,
    parse,
    serialize,
    threshold_size,
)
from .kikuchi_even import (  # noqa: F401
    KikuchiGraph,
    average_degree_bound,
    build_even,
    build_level_n,
    delta_count,
    regularize,
)
from .kikuchi_odd import (  # noqa: F401
    BipartiteDecomposition,
    OddKikuchiGraph,
    build_odd,
    cs_operator,
    delta_count_odd,
    edge_delete,
    local_degrees,
    regularity_check,
    regularity_decompose,
)
from .certify import (  # noqa: F401
    Certificate,
    certify,
    certify_even,
    certify_odd,
    spectral_norm,
    trace_moment,
)
from .oracle import (  # noqa: F401
    assemble,
    classical_max,
    classical_value,
    lambda_max,
    quadratic_form_check,
)
from .sos import (  # noqa: F401
    Contradiction,
    MomentOracle,
    PseudoExpectation,
    anticommuting_obstruction,
    boundary_expansion_check,
    lift_classical,
    max_entropy_build,
    positivity_check,
)
