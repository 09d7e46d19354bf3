"""Dephasing superchannels: noise maps on quantum gates that preserve every
classical transition probability.

The package covers the correlation-matrix representation of such maps, their
physical realization by memory states and their images under the memory
unitaries, classification of the memory correlations (product / PPT / NPT),
coherence monotones, a robustness solver with independent oracles, and a
discrimination game connecting the two. `channels.apply` acts on states,
`superchannels.apply` on channels; both modules are exported whole to keep
the two `apply` names apart.
"""

from . import (
    channels,
    coherence,
    fixtures,
    linalg,
    sampling,
    serialization,
    superchannels,
    verify,
)
from .channels import Channel, DephasingChannelC
from .coherence import (
    DiscriminationInstance,
    RobustnessCertificate,
    SolverError,
)
from .sampling import Rng
from .superchannels import (
    DephasingSuperchannel,
    InvalidCorrelationError,
    MemoryClass,
    SuperRealization,
    Violation,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "DephasingChannelC",
    "DephasingSuperchannel",
    "DiscriminationInstance",
    "InvalidCorrelationError",
    "MemoryClass",
    "Rng",
    "RobustnessCertificate",
    "SolverError",
    "SuperRealization",
    "Violation",
    "channels",
    "coherence",
    "fixtures",
    "linalg",
    "sampling",
    "serialization",
    "superchannels",
    "verify",
]
