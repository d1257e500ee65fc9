"""Fountain-coded storage and doped collection in circular squad networks."""

from .analytics import (
    DopingPrediction,
    UncoveredCount,
    YieldPmf,
    doping_table,
    expected_dopings,
    expected_yield,
    interdoping_yield_pmf,
    ripple_transition_matrix,
    simulate_walk_stopping_times,
    trapping_probabilities,
    uncovered_count,
    unreleased_degree_dist,
    wald_dopings,
    walk_intensity,
)
from .codec import (
    CodedSymbol,
    DecodeReport,
    DecoderState,
    SourceBlock,
    SymbolBatch,
    decode_with_doping,
    dope_degree_two,
    encode_symbols,
    init_decoder,
    process_ripple_symbol,
)
from .costs import (
    CostPoint,
    collection_cost,
    coupon_requirement,
    coupon_requirement_klogk,
    coupon_residual_uncovered,
    minimize_cost,
    rs_symbol_requirement,
    strategy_cost,
    supersquad_squads,
)
from .degrees import (
    DegreeDistribution,
    ideal_soliton,
    robust_soliton,
    robust_soliton_params,
    sample_degrees,
)
from .errors import (
    ConfigError,
    DivergedError,
    DopingUnavailableError,
    ExhaustedNetworkError,
    InvalidParameterError,
    MalformedInputError,
    SquadFountainError,
    StalledDecoderError,
)
from .network import (
    CollectionReport,
    Network,
    NetworkConfig,
    TransmissionSchedule,
    build_network,
    codec_dopings,
    collect,
    combining_rounds,
    network_dopings,
    ring_distance,
    simulate_collection_with_doping,
)

__version__ = "0.1.0"
