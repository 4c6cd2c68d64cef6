"""Rank-join substrate: PBRJ driver with the HRJN corner bound."""

from repro.rankjoin.hrjn import RoundRobinPuller, corner_bound
from repro.rankjoin.inputs import RankJoinInput
from repro.rankjoin.pbrj import PBRJ

__all__ = [
    "PBRJ",
    "RankJoinInput",
    "RoundRobinPuller",
    "corner_bound",
]
