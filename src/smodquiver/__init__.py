"""Quivers with quadratic relations for categories of special modules.

The pipeline: a `JordanSpec` (simple ideals plus a square-zero radical)
maps to a graded Lie datum, whose module category is presented by a colored
quiver with quadratic relations; exact character computations over the
classical root systems back every step, and a resolution engine certifies
linearity of the graded resolutions.

The names below are re-exported lazily (PEP 562): importing the package
loads no submodule, and a name's home module is imported on first access,
so each CLI subcommand loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names re-exported from it
_EXPORTS = {
    "jordan": ("Albert", "Bilinear", "Field", "Hermitian", "JordanSpec",
               "LieDatum", "TensorOfSpecial", "Unital", "central_extension_dim",
               "lie_datum_of_spec", "unitalize", "validate_spec"),
    "tables": ("StructureConstants", "check_jordan_identity"),
    "tkk": ("ShortGradedLie", "jordan_from_short_pair", "minimality_check",
            "tkk_construct"),
    "weights": ("RootSystem", "composite", "dual_weight", "fs_indicator",
                "weyl_dim"),
    "catalog": ("E7", "SL", "SL2", "SO1", "SO2", "SP", "duality_form",
                "restrict_s", "s_half_simples", "s_one_simples"),
    "quiver": ("QuiverReport", "assemble", "arrows_of", "classify_block",
               "group_radical", "relations_of", "report_to_dict",
               "wildness_flag"),
    "pathalg": ("PresentedAlgebra", "from_presentation", "koszul_check",
                "minimal_resolution"),
    "reference": ("Character", "ext_algebra", "ext_sym_square", "pi_product",
                  "plus_product", "report_from_dict", "segre_product",
                  "sym_algebra", "tensor_decompose", "trivial_multiplicity",
                  "weight_multiplicities"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("catalog", "cli", "jordan", "linalg", "oracles", "pathalg",
               "quiver", "reference", "tables", "tkk", "weights")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
