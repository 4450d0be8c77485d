"""Exact combinatorics of pattern-avoiding centrosymmetric permutations.

A permutation of length m is centrosymmetric when p(i) + p(m+1-i) = m+1
for every position i.  This package enumerates the 123- and 132-avoiding
members, maps the even-length 123-avoiders to Dyck prefixes through an
explicit bijection, and computes their descent distributions three
independent ways: brute force, combinatorial recurrences, and closed-form
generating series.
"""

from .bijection import (
    PhiTrace,
    VerificationError,
    even_to_odd_132,
    generate_c123_structural,
    generate_c132,
    odd_embed,
    odd_project,
    phi,
    phi_inverse,
    phi_trace,
)
from .oracle import CapExceeded, ClassSpec, descent_histogram, enumerate_class
from .paths import (
    InvalidPath,
    LatticePath,
    classify,
    enumerate_prefixes,
)
from .perms import (
    InvalidPermutation,
    Permutation,
    contains_pattern,
    descent_count,
    descent_set,
    is_centrosymmetric,
    left_half_word,
    ltr_minima,
    parse_permutation,
    right_connected_components,
)
from .series import BivariateSeries, NAMED_SERIES, NamedSeries
from .tables import DescentTable, FAMILIES, descent_tables
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "CapExceeded",
    "ClassSpec",
    "DescentTable",
    "FAMILIES",
    "InvalidPath",
    "InvalidPermutation",
    "LatticePath",
    "NAMED_SERIES",
    "NamedSeries",
    "Permutation",
    "PhiTrace",
    "VerificationError",
    "classify",
    "contains_pattern",
    "descent_count",
    "descent_histogram",
    "descent_set",
    "descent_tables",
    "enumerate_class",
    "enumerate_prefixes",
    "even_to_odd_132",
    "generate_c123_structural",
    "generate_c132",
    "is_centrosymmetric",
    "left_half_word",
    "ltr_minima",
    "odd_embed",
    "odd_project",
    "parse_permutation",
    "phi",
    "phi_inverse",
    "phi_trace",
    "right_connected_components",
    "run_suite",
    "__version__",
]
