"""Frontiers, unique characterizations, and exact learning of ELI queries
under DL-Lite ontologies, with brute-force verification oracles.

The package re-exports the functions ``characterize``, ``learn``,
``frontier_f`` and ``frontier_r`` under the names of their modules.  So
``import eliq.learn as L`` binds the function, not the module, and
``monkeypatch.setattr(L, ...)`` silently patches nothing; reach the module
with ``importlib.import_module("eliq.learn")``.
"""

__version__ = "0.1.0"

from .bruteforce import bruteforce_frontier_check
from .characterize import DataExample, ExampleSet, characterize, fits, verify_unique
from .errors import (
    EliqError,
    NotAnEliqError,
    ParseError,
    SeedRequiredError,
    UnsatisfiableError,
    UnsupportedDialectError,
)
from .frontier_base import Frontier, GenCandidate, generalize, minimal_core
from .frontier_f import frontier, frontier_f
from .frontier_r import frontier_r
from .learn import (
    LearnTrace,
    SimulatedOracle,
    default_budget,
    learn,
    learn_with_normal_form,
    minimize_cq,
    seed_query,
    treeify,
)
from .model import Trace, UniversalModelPrefix
from .normalform import is_normal_form, normalize
from .parser import (
    parse_abox,
    parse_cq,
    parse_ontology,
    serialize_abox,
    serialize_cq,
    serialize_ontology,
)
from .reasoner import (
    abox_satisfiable,
    certain_answer,
    contained,
    entails_basic,
    entails_role,
    enumerate_eliqs,
    equivalent,
    minimize_eliq,
    query_satisfiable,
    saturate,
    universal_prefix,
)
from .syntax import (
    ABox,
    CQ,
    Dialect,
    ELIConcept,
    Ontology,
    Role,
    combined_signature,
    concept_to_eliq,
    dialect_of,
    eliq_to_concept,
    make_cq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
