"""Exact statistics of random lozenge tilings with triangular holes.

The package computes hole correlations, lozenge placement probabilities,
the discrete average-orientation field and the average lifting surface,
all from exact determinant formulas, and checks their scaling limits
(a two-dimensional Coulomb field; sums of helicoids) against closed
forms and independent enumeration oracles.

The public names below are resolved on first access (PEP 562), so
``import lozenge`` loads no submodule and each CLI subcommand loads only
the layers it uses.
"""

from importlib import import_module

__version__ = "1.0.0"

_PUBLIC = {
    "exact": ("SqrtPiPoly", "ZetaFrac", "chi"),
    "lattice": (
        "EMPTY_SYSTEM", "HoleSystem", "LozengeLocation", "Monomer", "MultiHole", "TriHole",
        "charge", "hole", "left", "lozenges_covering", "right",
    ),
    "coupling": ("coupling_p", "divided_difference", "reduce_domain", "u_exact"),
    "correlation": (
        "CorrelationValue", "FieldSample", "MonomerConfig", "correlation_det",
        "discrete_field", "omega", "placement_probability",
    ),
    "continuum": (
        "Charge", "HelicoidSpec", "LimitConfig", "Probe", "build_limit_matrices",
        "coulomb_field", "field_ratio", "field_ratio_closed_form", "helicoid_fiber",
        "p_asymptotics", "surface_gradient_limit",
    ),
    "surface": ("Window", "average_surface", "compare_to_helicoids", "export_mesh"),
    "oracle": (
        "Region", "TorusSpec", "count_tilings", "hexagon", "oracle_probability", "torus_count",
    ),
}
# public name -> defining submodule
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
