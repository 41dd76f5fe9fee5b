"""Scene-conditioned, statistical, and hybrid trajectory intention points
over vectorized lane maps, plus map-conformance analysis tooling."""

from .analysis import (DeviationRecord, PredictionSet, coverage,
                       detect_parked, deviation_curve, gt_deviation, min_ade,
                       min_fde, miss_rate, moving_average)
from .experiments import FilterReport, filter_dataset
from .intention import (IntentionPointSet, KMeansConfig, MixConfig,
                        dynamic_intents, dynamic_intents_many, dynamic_pool,
                        mixed_intents, mixed_intents_many, static_intents,
                        to_agent_frame, weighted_kmeans, weighted_kmeans_many)
from .lane_assoc import (AssocConfig, AssociationResult, associate,
                         derive_heading, lane_heading_at)
from .map_model import (AgentState, AgentTrack, InvariantViolation,
                        LaneNeighbor, LaneSegment, MalformedScenario,
                        Scenario, ScenarioError, SchemaViolation, VectorMap,
                        parse_scenario, write_scenario)
from .road_graph import (GraphConfig, ReachabilitySet, RoadGraph, build_graph,
                         reach, travel_time)
from .scenario_gen import GenSpec, generate, iter_suite

__version__ = "0.1.0"
