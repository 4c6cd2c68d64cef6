"""The paper's core contribution: DHT scoring and join algorithms."""

from repro.core.bounds import XBound, YBound
from repro.core.dht import DHTParams

__all__ = [
    "DHTParams",
    "XBound",
    "YBound",
]
