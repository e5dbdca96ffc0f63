"""Exact Laplacian spectra, Laplacian energy, and L-borderenergetic graph
hunting over union/join/complement graph expressions.

The names from ``realize`` and ``scan`` need numpy, which costs more to
import than the whole exact calculus; they are loaded on first use.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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
from .spectrum import (
    Spectrum,
    multiplicity_of_zero,
    spectrum_of,
    spectrum_of_complete,
    spectrum_of_text,
)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys(
        (
            "DenseGraph",
            "Graph6Error",
            "GraphTooLargeError",
            "certify_integer_spectrum",
            "graph6_decode",
            "graph6_encode",
            "iter_graph6",
            "laplacian_matrix",
            "realize",
            "symmetric_eigenvalues",
        ),
        "realize",
    ),
    **dict.fromkeys(
        ("CERTIFIED_HIT", "MISS", "NUMERIC_HIT", "ScanRecord", "dedupe_cospectral", "scan", "scan_g6"),
        "scan",
    ),
}

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


class _Package(_ModuleType):
    """Importing the submodule ``realize`` or ``scan`` binds it as an attribute
    of the package, where it would hide the function of the same name."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _LAZY and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
