"""commlab: exact-arithmetic experiments on explicit matrix groups.

Discreteness and freeness for two-parabolic groups, shortest relators,
Bruhat-Tits tree computations, and irreducibility diagnostics for
S-arithmetic subgroups of SL(2, Q). Everything is exact; no floats.
"""

from .exact_core import (
    INFINITY,
    ElementClass,
    Mat2,
    classify_padic,
    classify_real,
    commutator,
    projective_normalize,
    vp,
)
from .words import (
    Alphabet,
    Word,
    evaluate,
    format_word,
    invert,
    iter_words,
    multiply,
    necklace_canonical,
    parse_word,
    reduce,
)
from .lu_lab import (
    KnappVerdict,
    PingpongResult,
    RelatorResult,
    knapp,
    lu_generators,
    pingpong,
    relator_search,
)
from .bt_tree import (
    OrbitResult,
    PigeonholeResult,
    TreeVertex,
    act,
    ball,
    base_vertex,
    busemann,
    commutator_pigeonhole,
    distance,
    neighbors,
    orbit_bounded,
    translation_length,
    vertex_of,
)
from .diagnostics import (
    DensityResult,
    IrreducibilityReport,
    PlaceSupport,
    ProbeReport,
    TraceScanResult,
    density_report,
    integral_trace_scan,
    irreducibility_report,
    long_reid_pair,
    place_support,
    two_gen_probe,
    zariski_dense,
)

__version__ = "0.1.0"
