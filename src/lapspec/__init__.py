"""Exact Laplacian spectra, Laplacian energy, and L-borderenergetic graph
hunting over union/join/complement graph expressions."""

from .energy import (
    EnergyReport,
    energy_report,
    is_cospectral,
    is_l_borderenergetic,
    laplacian_energy,
    m_energy,
)
from .expr import (
    Complement,
    Complete,
    GraphExpr,
    Join,
    LiteralOverflowError,
    ParseError,
    Repeat,
    Union,
    edge_count,
    order,
    parse,
    render,
)
from .families import (
    FAMILY_IDS,
    FamilySpec,
    FamilyVerdict,
    build,
    closed_form_spectrum,
    family_specs,
    pairwise_noncospectral,
    source,
    verify,
)
from .realize import (
    DenseGraph,
    Graph6Error,
    GraphTooLargeError,
    certify_integer_spectrum,
    graph6_decode,
    graph6_encode,
    iter_graph6,
    laplacian_matrix,
    realize,
    symmetric_eigenvalues,
)
from .scan import (
    CERTIFIED_HIT,
    MISS,
    NUMERIC_HIT,
    ScanRecord,
    dedupe_cospectral,
    scan,
    scan_g6,
)
from .spectrum import (
    Spectrum,
    multiplicity_of_zero,
    spectrum_of,
    spectrum_of_complete,
)

__version__ = "0.1.0"
