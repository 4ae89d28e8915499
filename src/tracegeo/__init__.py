"""Exact combinatorial and numerical building blocks for the geometric
side of a trace-formula computation: root systems and their parabolic
lattices, nilpotent orbit dimensions, decay invariants, Weyl
discriminants, congruence-subgroup indices, Mellin finite parts, and the
error-exponent budget that ties them together.
"""

import importlib

# Each public name and the submodule that defines it.  Submodules load on
# first access (PEP 562), so `import tracegeo` loads none of them until one
# of their names is used.
_SOURCES = {
    "errors": ("DiagnosticsError", "DomainError", "NumericError",
               "ParseError", "ResourceLimitError", "TracegeoError",
               "exit_code_for"),
    "root_datum": ("RootSystem", "SimpleType", "build_root_system",
                   "dual_coxeter_number"),
    "parabolic_lattice": ("LeviDatum", "ParabolicSubset",
                          "count_contributing_tuples", "d_nonvanishing",
                          "dim_unipotent_radical",
                          "enumerate_parabolic_subsets", "f_sets",
                          "full_levi", "levi_of", "make_levi",
                          "minimal_levi"),
    "nilpotent_orbits": ("GLType", "OrbitLabel", "list_orbits",
                         "min_orbit_dim", "orbit_dim"),
    "invariants_k": ("GroupSpec", "RelativeDatum", "k_by_pairs",
                     "k_min_orbit", "k_report", "k_richardson"),
    "local_data": ("DiscriminantValue", "RationalMatrix", "as_fraction",
                   "modulus_character", "weyl_discriminant"),
    "arithmetic": ("LevelData", "PrimeFixedResult", "conjecture_bound",
                   "level_data", "prime_fixed_check", "sl_index"),
    "mellin_fp": ("AsymptoticExpansion", "TailFunction", "exp_preset",
                  "fp_mellin", "sqrt_exp_preset", "torsion_constant",
                  "truncation_tail"),
    "error_budget": ("BudgetParams", "ExponentReport", "QuadraticSurd",
                     "a_exponent", "beta_max", "exponents", "lambda_min",
                     "total_envelope"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
