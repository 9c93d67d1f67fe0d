"""Exact contingency metamatrices of finite Coxeter groups, with
total-positivity certification.

The package root exports the pipeline entry points; every other name is
importable from its module."""

from .coxeter import CoxeterSystem, UnsupportedSystem, build_system
from .engine import (
    Metamatrix,
    NTable,
    accumulate_ntable,
    dihedral_ntable,
    double_coset_count,
    metamatrix_bruteforce,
    metamatrix_from_ntable,
)
from .exactlinear import Matrix
from .tp import TPCertificate, all_minors_positive, fekete_check, gauss_decomposition_typeb
from .typeb import metamatrix_typeb

__version__ = "0.1.0"
