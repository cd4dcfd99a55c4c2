"""Composable capacity acquisition: brokers, offers, and the one policy.

Every way this project gets machines — plain on-demand launches, warm
lease pools, the 2010 spot market with its fallback ladder, resilient
retry/breaker/hedge stacks — is expressed as a
:class:`~repro.capacity.brokers.CapacityBroker` producing
:class:`~repro.capacity.brokers.CapacityOffer` values, and every runner
entry point drives them through one
:class:`~repro.capacity.acquisition.BrokerAcquisition` policy.  Brokers
compose: a :class:`~repro.capacity.brokers.LadderBroker` chains stacks in
preference order, and a
:class:`~repro.capacity.brokers.SpotBroker` escalates into whatever
broker it is given — which is how DAG stages end up on spot capacity
with warm-lease escalation without any runner growing new code paths.
"""

from repro.capacity.brokers import (
    CapacityBroker,
    CapacityOffer,
    CapacityRequest,
    LadderBroker,
    OfferUnavailable,
    OnDemandBroker,
    ResilientBroker,
    SpotBinState,
    SpotBroker,
    WarmLeaseBroker,
)
from repro.capacity.acquisition import BrokerAcquisition

__all__ = [
    "BrokerAcquisition",
    "CapacityBroker",
    "CapacityOffer",
    "CapacityRequest",
    "LadderBroker",
    "OfferUnavailable",
    "OnDemandBroker",
    "ResilientBroker",
    "SpotBinState",
    "SpotBroker",
    "WarmLeaseBroker",
]
