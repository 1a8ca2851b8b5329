"""Friendship-graph reconstruction and attribute inference over
simulated online social networks."""

from .model import (
    GeneratorConfig,
    IntegrityError,
    OsnSnapshot,
    Picture,
    SchemaError,
    SnapshotError,
    UserProfile,
    generate_synthetic,
    ingest_edge_list,
    load_snapshot,
    load_snapshot_file,
)
from .oracle import FEATURES, PublicView, QueryBudgetExceeded
from .recover import FriendsFound, recover_friends
from .twohop import (
    FriendshipGraph,
    Role,
    TwoHopSurvey,
    build_graph,
    collect_2hop,
    prune_single_edge,
    shared_edge_count,
    two_hop_nodes,
)
from .attributes import (
    InferenceError,
    collect_friend_records,
    extract_rates,
    rank_guesses,
    top_k_accuracy,
    top_within_k_accuracy,
)
from .scoring import (
    FRIEND,
    NOT_FRIEND,
    CalibrationError,
    CandidateScore,
    Thresholds,
    calibrate,
    classify,
    score_candidates,
)
from .evaluate import (
    ConfusionMatrix,
    EvaluationError,
    ExperimentConfig,
    Metrics,
    confusion,
    evaluate_victim,
    metrics,
    run_experiment,
)
from .dotexport import graph_to_dot

__version__ = "0.1.0"
