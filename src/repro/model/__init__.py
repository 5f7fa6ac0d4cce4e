"""Section 4's analytic cost model, loop classification, and the static
certification front-end."""

from repro.model.analytic import (
    k_d_geometric,
    k_s_geometric,
    k_s_linear,
    remaining_after,
    speedup_geometric,
    speedup_linear,
    t_static,
    t_dyn_geometric,
    total_time_geometric,
    total_time_linear,
)
from repro.model.certify import (
    DOALL,
    SEQUENTIAL,
    SPECULATE,
    LoopCertificate,
    certify_loop,
    fastpath_strategy,
)
from repro.model.classify import estimate_alpha, estimate_beta, classify_loop
from repro.model.predict import ScalingPrediction, predict_scaling, predicted_time
from repro.model.footprint import FootprintReport, estimate_footprints

__all__ = [
    "DOALL",
    "SEQUENTIAL",
    "SPECULATE",
    "LoopCertificate",
    "certify_loop",
    "fastpath_strategy",
    "k_s_geometric",
    "k_s_linear",
    "k_d_geometric",
    "remaining_after",
    "t_static",
    "t_dyn_geometric",
    "total_time_geometric",
    "total_time_linear",
    "speedup_geometric",
    "speedup_linear",
    "estimate_alpha",
    "estimate_beta",
    "classify_loop",
    "ScalingPrediction",
    "predict_scaling",
    "predicted_time",
    "FootprintReport",
    "estimate_footprints",
]
