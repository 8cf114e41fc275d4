"""mnegoti: deterministic simulation of multilateral negotiation.

Heterogeneous agent groups sample criterion preferences within bounds,
meet in rooms under declared agendas, and negotiate under pluggable
protocols on a discrete-tick schedule with watcher rules. Every run is a
pure function of (scenario, seed).
"""

from .context import Context, ObjectKind, Query
from .engine import EventRecord, Simulation
from .errors import MnegotiError, ValidationError
from .model import (
    Agent,
    AgentGroup,
    AgentPhase,
    Criterion,
    Direction,
    DistributionKind,
    DistributionSpec,
    Issue,
    PreferenceBounds,
    StrategyConfig,
    StrategyKind,
    evaluate,
    normalize_weights,
    sample_preferences,
    spawn_members,
)
from .protocols import (
    FailureReason,
    NegotiationOutcome,
    NegotiationSession,
    Offer,
    ProtocolConfig,
    ProtocolKind,
    SessionStatus,
    acceptable_set,
    build_session,
    concession_threshold,
    propose,
    run_round,
    session_outcome,
)
from .rooms import AdmissionKind, AdmissionPolicy, Agenda, MeetingRoom, RoomState
from .runner import RunArtifacts, SummaryRow, run, summarize, write_artifacts
from .scenario import (
    Scenario,
    load_scenario,
    load_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)
from .scheduler import (
    ActionKind,
    ReactionOffset,
    ScheduledAction,
    Scheduler,
    Trigger,
    WatcherRule,
)

__version__ = "0.1.0"
