"""Redesign-as-a-service: the network layer of the reproduction.

The paper's tool is interactive -- users submit an ETL flow and explore
quality-ranked redesign alternatives -- and its heavy processing runs on
elastic cloud infrastructure.  This package is the reproduction's
counterpart: a stdlib-only service layer (``http.server`` + JSON) with
two coordinated halves.

:class:`CacheServer` / :class:`~repro.cache.http.HTTPProfileCache`
    Any profile-cache tier served over HTTP, so a *fleet* of planners on
    different machines shares one store
    (``ProcessingConfiguration.cache_urls``); unreachable servers
    degrade to a local memory tier, never failing a plan, and recovery
    probes win a restarted server its traffic back.

:class:`RedesignServer` / :class:`RedesignClient`
    ``POST /plans`` a flow document, poll live progress (streamed by the
    planning pipeline), fetch the ranked alternatives.  Jobs go through a
    :class:`~repro.fleet.JobQueue` drained by
    :class:`~repro.fleet.FleetWorker` threads sharing one injected cache
    tier by default, or by worker processes on a durable queue file.

Start either from the command line with ``tools/serve.py``; see
``docs/service.md`` for the wire format and deployment sketch.  Both
servers bind ``127.0.0.1`` by default and speak HTTP/1.1 with pooled
keep-alive connections, transparent gzip for large bodies, and
optional shared-token authentication (``--auth-token`` /
``auth_token=``) -- terminate TLS in a fronting proxy before a token
crosses an untrusted network.
"""

from repro.service.cache_server import CacheServer
from repro.service.client import RedesignClient, RedesignServiceError
from repro.service.common import (
    MAX_REQUEST_BYTES,
    JSONRequestHandler,
    ServiceError,
    ServiceServer,
)
from repro.service.redesign_server import RedesignServer, configuration_from_request
from repro.service.results import result_from_dict, result_to_dict

__all__ = [
    "MAX_REQUEST_BYTES",
    "CacheServer",
    "JSONRequestHandler",
    "RedesignClient",
    "RedesignServer",
    "RedesignServiceError",
    "ServiceError",
    "ServiceServer",
    "configuration_from_request",
    "result_from_dict",
    "result_to_dict",
]
