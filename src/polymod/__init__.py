"""Shapes of weighted point configurations on the circle.

Forward maps from weight vectors to polygon/polyhedron shape parameters,
their inversion from designated shape pairs, Lorentzian models with
signature and dihedral-angle queries, glued cell complexes with orbit
counts, and a deterministic verification harness behind the ``polymod``
command-line tool.

Importing the package loads none of its layers.  Each ``polymod.<layer>``
is registered as a lazy module that runs on its first attribute access,
and each name of ``__all__`` resolves from its layer on first use, so a
command loads only the layers it calls (and numpy with the first numeric
one).
"""

import importlib.util
import sys

__version__ = "1.0.0"

#: The layer that defines each exported name.
_LAYERS = {
    "errors": """DegenerateTriangle FacetsDisjoint FootOutsideBase InconsistentPair
        NegativeRatio NoIntersection NonPositive NotAPermutation NotEqualWeight
        NotInTheta OutOfRange PairingFailure PairSumTooLarge PolymodError
        RejectionBudgetExceeded RouteDisagreement SignatureMismatch SlideCollision
        SumMismatch""",
    "combinatorics": "Label WeightVector as_word enumerate_labels equal_weight validate_weight",
    "planar": "complete_triangle pentagon_feet",
    "lorentz": """ModelStack axis_intercepts build_model build_models dihedral_angle
        facet_zero_ray""",
    "moduli": """HexahedronShape PentagonShape PentagonSides classify_hexahedron
        pentagon_side_lengths psi5 psi6""",
    "fiber": """UpperHalfPoint fiber_theta5 fiber_theta6 inversion_report invert5
        invert6 verify_injectivity""",
    "complexes": """DegenerateConfig FacePairing GluedComplex build_complex cusp_classes
        euler_characteristic face_config singular_edges triple_config vertex_config""",
    "verify": "ORTHOGONAL_PAIRS run_suite",
    "jsonio": "SUITES dumps_canonical format_float parse_label parse_shape parse_theta",
}

_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def _register_lazy(layer: str) -> None:
    """Put ``polymod.<layer>`` in ``sys.modules`` unexecuted; it runs on
    its first attribute access, as a plain import would have run it."""
    name = f"{__name__}.{layer}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    globals()[layer] = module


for _layer in _LAYERS:
    _register_lazy(_layer)
del _layer


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
