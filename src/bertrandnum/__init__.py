"""Real-base expansions, Bertrand numeration systems and their sofic shifts.

Everything is exact: digits of expansions come from rational or
algebraic-number arithmetic with certified floors, languages are handled
through greedy representations and the suffix criterion, and asymptotic
claims are verified with rational interval enclosures.

Importing the package loads none of its layers.  Each public name below
is resolved from its submodule on first access (PEP 562), so a caller
pays only for the layers it uses: `bertrandnum.cli` builds its parser
without any of them, and each command imports what it runs.
"""

VARIANTS = ("canonical", "noncanonical")
# digits of the expansion of 1 read before a base is called unresolved
DEFAULT_DEPTH = 64

__version__ = "0.1.0"

# the public names of each layer
_LAYERS = {
    "errors": ("NumerationError", "RefinementBudgetError", "UnresolvedBaseError", "WordError"),
    "words": (
        "DigitWord",
        "EPWord",
        "digit_word",
        "epword",
        "expansion_polynomial",
        "format_epword",
        "format_word",
        "is_parry_valid",
        "parse_epword",
        "parse_word",
        "quasi_to_greedy",
    ),
    "realbase": (
        "ParryClass",
        "RealBase",
        "base_from_expansion",
        "char_poly",
        "generating_word",
        "parse_base",
        "quasi_greedy_of",
    ),
    "numsys": ("BertrandReport", "NumSys", "Violation", "parse_system"),
    "bertrand": (
        "ClassifyResult",
        "CountingIdentityReport",
        "build_bertrand",
        "classify_bertrand",
        "verify_counting_identity",
    ),
    "automata": ("Dfa", "build_shift_dfa"),
    "analysis": (
        "EntropyReport",
        "LexMaxConvergenceReport",
        "dominant_root_ratios",
        "entropy_estimates",
        "lexmax_convergence_probe",
        "renewal_empirical",
        "renewal_target",
    ),
    "intervals": ("Interval",),
    "polynomials": (),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

# a star import binds the layer modules too, as it did when they were imported eagerly
__all__ = ["VARIANTS", *_EXPORTS, *_LAYERS]


def __getattr__(name):
    from importlib import import_module

    if name in _LAYERS:  # a layer read as an attribute before it was imported
        return import_module(f"{__name__}.{name}")
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
