"""SDP certificates, formulations, and heuristics for graph coloring."""

from .graphs import Coloring, Graph, KTreeTrace
from .sdp import ConstraintMap, FaceMap, SdpSolution, solve

__all__ = [
    "Coloring",
    "ConstraintMap",
    "FaceMap",
    "Graph",
    "KTreeTrace",
    "SdpSolution",
    "solve",
]
