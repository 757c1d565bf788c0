"""The paper's contribution: unified client events and session sequences."""

from repro.core.names import (
    LEVELS,
    NUM_LEVELS,
    EventName,
    EventPattern,
    InvalidEventNameError,
    match_names,
)
from repro.core.namespace import UnknownViewError, ViewHierarchy, ViewNode
from repro.core.event import (
    CLIENT_EVENTS_CATEGORY,
    ClientEvent,
    ClientEventV1,
    EventInitiator,
)
from repro.core.anonymize import Anonymizer
from repro.core.dictionary import DictionaryError, EventDictionary
from repro.core.sessionizer import (
    DEFAULT_INACTIVITY_GAP_MS,
    Session,
    Sessionizer,
)
from repro.core.sequences import SessionSequenceRecord
from repro.core.builder import (
    BuildResult,
    CATALOG_ROOT,
    SessionSequenceBuilder,
    catalog_day_path,
    write_day_events,
)
from repro.core.catalog import CatalogEntry, ClientEventCatalog
from repro.core.details_schema import (
    DetailsSchemaInferencer,
    EventDetailsSchema,
    KeySchema,
    classify_value,
)
from repro.core.layouts import (
    SessionReorganizedLayout,
    reorganize_day,
)

__all__ = [
    "LEVELS",
    "NUM_LEVELS",
    "EventName",
    "EventPattern",
    "InvalidEventNameError",
    "match_names",
    "UnknownViewError",
    "ViewHierarchy",
    "ViewNode",
    "CLIENT_EVENTS_CATEGORY",
    "ClientEvent",
    "ClientEventV1",
    "EventInitiator",
    "Anonymizer",
    "DictionaryError",
    "EventDictionary",
    "DEFAULT_INACTIVITY_GAP_MS",
    "Session",
    "Sessionizer",
    "SessionSequenceRecord",
    "BuildResult",
    "CATALOG_ROOT",
    "SessionSequenceBuilder",
    "catalog_day_path",
    "write_day_events",
    "CatalogEntry",
    "ClientEventCatalog",
    "DetailsSchemaInferencer",
    "EventDetailsSchema",
    "KeySchema",
    "classify_value",
    "SessionReorganizedLayout",
    "reorganize_day",
]
