"""Additive stamp bases: covers, admissibility thresholds, families, scans.

The package answers questions of this shape: given denominations
1 = a_1 < a_2 < ... < a_k and a budget of h stamps, how far does the
unbroken run of reachable values extend, when does it first pass a_k,
and when does it saturate at the ceiling h * a_k?  Symmetric bases get
special treatment because reflection pins their saturation threshold
into a provable window.
"""

# The public names: ``import *`` binds these and the four submodules.
from . import errors
from .analysis import (
    DEFAULT_H1_CAP,
    BasisReport,
    analyze,
    compute_h0,
    is_symmetric,
    reflect_generation,
    symmetrize_even,
    symmetrize_odd,
)
from .core import (
    Basis,
    CoverProfile,
    Generation,
    MinStampTable,
    brute_force_cover,
    cover,
    cover_profile,
    find_generation,
    min_stamp_table,
    parse_basis,
)
from .families import family_a5, family_a9, family_a10
from .search import (
    ExtremalResult,
    ScanFailure,
    ScanSpec,
    ScanSummary,
    enumerate_all_bases,
    enumerate_symmetric,
    run_scan,
    scan_conjecture,
    search_extremal,
)

__version__ = "0.1.0"
