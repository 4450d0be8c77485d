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
    components_vs_returns,
    even_to_odd_132,
    generate_c123_even,
    generate_c123_structural,
    generate_c132,
    odd_embed,
    odd_project,
    phi,
    phi_inverse,
    phi_trace,
    predicted_heights,
)
from .oracle import CapExceeded, ClassSpec, descent_histogram, enumerate_class
from .paths import (
    InvalidPath,
    LatticePath,
    classify,
    enumerate_prefixes,
    path_stats,
)
from .perms import (
    InvalidPermutation,
    MinimaDecomposition,
    Permutation,
    avoids_pattern,
    contains_pattern,
    descent_count,
    descent_set,
    is_centrosymmetric,
    left_half_word,
    ltr_minima,
    minima_decomposition,
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
    "MinimaDecomposition",
    "NAMED_SERIES",
    "NamedSeries",
    "Permutation",
    "PhiTrace",
    "VerificationError",
    "avoids_pattern",
    "classify",
    "components_vs_returns",
    "contains_pattern",
    "descent_count",
    "descent_histogram",
    "descent_set",
    "descent_tables",
    "enumerate_class",
    "enumerate_prefixes",
    "even_to_odd_132",
    "generate_c123_even",
    "generate_c123_structural",
    "generate_c132",
    "is_centrosymmetric",
    "left_half_word",
    "ltr_minima",
    "minima_decomposition",
    "odd_embed",
    "odd_project",
    "parse_permutation",
    "path_stats",
    "phi",
    "phi_inverse",
    "phi_trace",
    "predicted_heights",
    "right_connected_components",
    "run_suite",
    "__version__",
]
