"""Finite hypersets: accessible pointed graphs with pluggable
anti-foundation semantics, a set-equation language, and automorphism
machinery."""

from .apg import (
    Apg,
    DEFAULT_ISO_CAP,
    Partition,
    is_well_founded,
    pointed_isomorphic,
    quotient,
    rank_map,
    trim_to_accessible,
)
from .boffa import Universe
from .canon import (
    AutomorphismGroup,
    CanonResult,
    Semantics,
    automorphisms,
    canonicalize,
    equal,
    equality_classes,
    is_canonical_picture,
    is_rigid,
    solve,
    to_dot,
)
from .equivalence import counting_partition, finsler_partition, max_bisimulation
from .grouplab import (
    AgArtifact,
    GroupTable,
    aut_group_of,
    build_A_G,
    cyclic_group,
    groups_isomorphic,
    klein_four_group,
    preset_group,
    symmetric_group_3,
)
from .hsl import HslProgram, flatten, flatten_into, parse, unparse
from .wflab import (
    ExtendedMap,
    LevelledUniverse,
    all_automorphisms,
    build_universe,
    classify_map,
    extend_map,
)
from . import errors

__all__ = [
    "Apg",
    "AgArtifact",
    "AutomorphismGroup",
    "CanonResult",
    "DEFAULT_ISO_CAP",
    "ExtendedMap",
    "GroupTable",
    "HslProgram",
    "LevelledUniverse",
    "Partition",
    "Semantics",
    "Universe",
    "all_automorphisms",
    "aut_group_of",
    "automorphisms",
    "build_A_G",
    "build_universe",
    "canonicalize",
    "classify_map",
    "counting_partition",
    "cyclic_group",
    "equal",
    "equality_classes",
    "errors",
    "extend_map",
    "finsler_partition",
    "flatten",
    "flatten_into",
    "groups_isomorphic",
    "is_canonical_picture",
    "is_rigid",
    "is_well_founded",
    "klein_four_group",
    "max_bisimulation",
    "parse",
    "pointed_isomorphic",
    "preset_group",
    "quotient",
    "rank_map",
    "solve",
    "symmetric_group_3",
    "to_dot",
    "trim_to_accessible",
    "unparse",
]
