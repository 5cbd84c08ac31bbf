"""Null geodesics, U(n) parallel transport and the broken light-ray transform."""

from .gauge import ConnectionField, GaugeField, gauge_act, random_connection, random_gauge
from .geometry import (
    Cylinder,
    Minkowski,
    ObservationSet,
    TimeWarp,
    WarpedProduct,
    connect_null,
    integrate_geodesic,
    null_cut_time,
    null_vector,
    time_separation,
)
from .reconstruction import TransformOracle, gauge_candidate, reconstruct_gauge
from .transport import BrokenRayQuery, broken_transform, inverse_transport, parallel_transport

__version__ = "0.1.0"

__all__ = [
    "BrokenRayQuery",
    "ConnectionField",
    "Cylinder",
    "GaugeField",
    "Minkowski",
    "ObservationSet",
    "TimeWarp",
    "TransformOracle",
    "WarpedProduct",
    "broken_transform",
    "connect_null",
    "gauge_act",
    "gauge_candidate",
    "integrate_geodesic",
    "inverse_transport",
    "null_cut_time",
    "null_vector",
    "parallel_transport",
    "random_connection",
    "random_gauge",
    "reconstruct_gauge",
    "time_separation",
    "__version__",
]
