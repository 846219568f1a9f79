"""Certified-error evaluation of Euler-type sums and their modern relatives.

The package covers five layers that feed one another: an arbitrary
precision kernel with explicit error bounds (:mod:`.numkernel`), classical
single sums and identity checks (:mod:`.eulerfun`), multiple zeta and
alternating multiple sums (:mod:`.mzv`), a symbolic coaction calculus with
a numerical period map (:mod:`.symbolic`), graph polynomials with a Monte
Carlo period integrator (:mod:`.feynper`), and the electron g-2 series
with its measurement registry (:mod:`.g2`).  The ``euler-periods``
console script in :mod:`.cli` exposes all of it.

``import euler_periods`` loads no layer.  A layer is imported the first
time one of its names, or the layer itself, is looked up on the package
(PEP 562), so ``euler_periods.zeta`` loads :mod:`.eulerfun` and what it
needs, and nothing else.  numpy is loaded only by the Monte Carlo
functions, :func:`period_mc` and :func:`integrator_selftest`, and by the
primitivity test :func:`is_primitive_log_divergent`.

``euler_periods.mzv`` is the function :func:`mzv`, whichever layer was loaded
first; the layer of that name is reached with ``from euler_periods.mzv
import ...``.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

#: The public names, each listed once under the layer that defines it.
_EXPORTS = {
    "errors": (
        "Disconnected",
        "DivergentIndex",
        "DomainError",
        "EulerPeriodsError",
        "InputError",
        "InternalCheckError",
        "NoConvergence",
        "NonFiniteSample",
        "NotPrimitive",
        "ParseError",
        "PrecisionNotMet",
        "SchemaError",
        "TooLarge",
    ),
    "numkernel": (
        "BigReal",
        "accel_alt_sum",
        "bernoulli",
        "em_sum",
        "working_bits",
        "working_dps",
    ),
    "eulerfun": (
        "IdentityKind",
        "gamma_const",
        "identity_residual",
        "phi",
        "polylog",
        "zeta",
        "zeta_even_closed",
    ),
    "mzv": ("multiphi", "mzv", "mzv_bruteforce", "p35_combination", "stuffle_residual"),
    "symbolic": (
        "MotivicExpr",
        "StabilityReport",
        "TensorSum",
        "UnipotentExpr",
        "UTensorSum",
        "coact",
        "coassoc_residual",
        "galois_conjugates",
        "hopf_coproduct",
        "parse_expr",
        "period_map",
        "stability_report",
    ),
    "feynper": (
        "GraphPolynomial",
        "MultiGraph",
        "PeriodEstimate",
        "SelfTestReport",
        "bubble",
        "graph_from_dict",
        "integrator_selftest",
        "is_primitive_log_divergent",
        "k4",
        "kirchhoff_polynomial",
        "load_graph",
        "loop_number",
        "matrix_tree_count",
        "named_graph",
        "period_mc",
        "snap_to_multiple",
        "spanning_trees",
        "triangle",
        "wheel",
        "zigzag",
    ),
    "g2": (
        "A4_DIGITS",
        "CoeffMode",
        "CoefficientSet",
        "ComparisonResult",
        "Measurement",
        "assemble",
        "coeff_a2",
        "coeff_a3",
        "combine_uncertainties",
        "compare",
        "default_registry_path",
        "format_difference",
        "g_factor",
        "invert_alpha",
        "load_registry",
        "lookup",
    ),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    # Names come before layers: ``mzv`` is both, and the package has always
    # exported the function.  A resolved name is cached so that later lookups
    # skip this hook.
    if name in _LAYER_OF:
        value = getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(ModuleType):
    """The package module, which keeps an exported name over a layer of that name.

    Loading a submodule binds it as an attribute of its package.  When
    ``.mzv`` is first loaded, by :mod:`.g2` say, that would replace the
    exported function ``mzv`` with the module; the layer stays reachable as
    ``sys.modules["euler_periods.mzv"]`` and through ``from .mzv import``.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _LAYER_OF and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
