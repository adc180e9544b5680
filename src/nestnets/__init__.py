"""Nets with nested tokens: multisets, Petri nets, object systems,
name-carrying nets, and the compilation from the latter to the former."""

from .coverability import (
    DEFAULT_MAX_STATES,
    CoverAnswer,
    ExploreResult,
    SearchLimitReached,
    SimulationReport,
    TransferReport,
    check_simulation,
    check_transfer,
    cover_nunet,
    cover_object_system,
    explore_nunet,
    explore_object_system,
    minimal_runs,
    replay_nunet,
    replay_object_system,
)
from .dot import dot_nunet, dot_object_system
from .multisets import EMPTY, Multiset
from .nunet import NuMode, NuNet
from .nunet import config as nu_config
from .nunet import covers as nu_covers
from .nunet import enabled_modes as nu_enabled_modes
from .nunet import fire as nu_fire
from .nunet import size as nu_size
from .nunet import validate as nu_validate
from .objectsystem import (
    Event,
    EventMode,
    NestedToken,
    ObjectSystem,
    covers,
    fire,
    idle_id,
    project_system,
)
from .petri import BLACK, BLACK_ID, NotEnabledError, PetriNet
from .reduction import (
    NameEntry,
    Reduction,
    decode_config,
    encode_config,
    max_run_length,
    object_net,
    reduce_nunet,
    run_length,
)
from .textio import (
    InvalidNetError,
    ParseError,
    format_config,
    format_marking,
    name_table_tsv,
    parse_config,
    parse_marking,
    parse_nunet,
    parse_object_system,
    print_nunet,
    print_object_system,
    sniff_format,
)

__version__ = "0.1.0"

__all__ = [
    "BLACK",
    "BLACK_ID",
    "CoverAnswer",
    "DEFAULT_MAX_STATES",
    "EMPTY",
    "Event",
    "EventMode",
    "ExploreResult",
    "InvalidNetError",
    "Multiset",
    "NameEntry",
    "NestedToken",
    "NotEnabledError",
    "NuMode",
    "NuNet",
    "ObjectSystem",
    "ParseError",
    "PetriNet",
    "Reduction",
    "SearchLimitReached",
    "SimulationReport",
    "TransferReport",
    "check_simulation",
    "check_transfer",
    "cover_nunet",
    "cover_object_system",
    "covers",
    "decode_config",
    "dot_nunet",
    "dot_object_system",
    "encode_config",
    "explore_nunet",
    "explore_object_system",
    "fire",
    "format_config",
    "format_marking",
    "idle_id",
    "max_run_length",
    "minimal_runs",
    "name_table_tsv",
    "nu_config",
    "nu_covers",
    "nu_enabled_modes",
    "nu_fire",
    "nu_size",
    "nu_validate",
    "object_net",
    "parse_config",
    "parse_marking",
    "parse_nunet",
    "parse_object_system",
    "print_nunet",
    "print_object_system",
    "project_system",
    "reduce_nunet",
    "replay_nunet",
    "replay_object_system",
    "run_length",
    "sniff_format",
]
