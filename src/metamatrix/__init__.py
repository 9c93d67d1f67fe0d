"""Exact contingency metamatrices of finite Coxeter groups, with
total-positivity certifiers (`tp`) and the type-B closed form and its
factorization (`typeb`).  The package root exports the pipeline entry
points; every other name is importable from its module.  Each entry point
is imported from its module on first access (PEP 562), so importing the
package, or a module such as `metamatrix.cli` or `metamatrix.tp`, loads no
pipeline it does not use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "CoxeterSystem": "coxeter",
    "build_system": "coxeter",
    "UnsupportedSystem": "tables",
    "Metamatrix": "tables",
    "NTable": "tables",
    "dihedral_ntable": "tables",
    "metamatrix_from_ntable": "tables",
    "accumulate_ntable": "engine",
    "double_coset_count": "engine",
    "metamatrix_bruteforce": "engine",
    "TPCertificate": "tp",
    "all_minors_positive": "tp",
    "fekete_check": "tp",
    "gauss_decomposition_typeb": "typeb",
    "metamatrix_typeb": "typeb",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
