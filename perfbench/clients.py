"""Backends the benchmark builds itself, and the counters around them.

Every role gets the package's deterministic mock behind an
``UpstreamTransport``. For the roles an ``Upstream`` serves, that is a
stand-in for a remote service: a fixed latency per send, and the first
attempt of a fixed share of requests fails. Which requests fail is
decided by ``cache_key(request)``, so the faults are the same whatever
order the worker threads send in. The other roles answer at once.

Requests, sends, cache hits and retries are counted from outside: the
transport counts sends, ``CountingClient`` wraps each ``BackendClient``
and counts requests and hits, and every send that did not end in an
upstream call was retried. No ``scenefuse`` module is patched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from scenefuse.backends import (
    ROLES,
    BackendClient,
    BackendRequest,
    Backends,
    RoleRuntime,
    cache_key,
    default_mock_transport,
    default_template,
)
from scenefuse.errors import BackendUnavailable

_sent = threading.local()


@dataclass(frozen=True)
class Upstream:
    """How the stand-in service behaves, and which roles it serves."""

    latency_s: float = 0.0
    fail_one_in: int = 0  # 0: never fail
    backoff_s: float = 0.0
    roles: frozenset[str] = frozenset(ROLES)


LOCAL = Upstream()


class UpstreamTransport:
    """A transport with fixed latency and deterministic first-attempt faults."""

    def __init__(self, inner, upstream: Upstream):
        self.inner = inner
        self.upstream = upstream
        self.sends = 0
        self._failed: set[str] = set()
        self._lock = threading.Lock()

    def send(self, request: BackendRequest) -> str:
        _sent.flag = True
        with self._lock:
            self.sends += 1
        if self.upstream.latency_s:
            time.sleep(self.upstream.latency_s)
        if self.upstream.fail_one_in:
            key = cache_key(request)
            if int(key[:8], 16) % self.upstream.fail_one_in == 0:
                with self._lock:
                    first = key not in self._failed
                    self._failed.add(key)
                if first:
                    raise BackendUnavailable(f"injected fault for {key[:12]}")
        return self.inner.send(request)


class CountingClient:
    """Wraps a BackendClient: counts requests and hits, records a span each."""

    def __init__(self, inner: BackendClient, role: str, tracer):
        self.inner = inner
        self.role = role
        self.tracer = tracer
        self.requests = 0
        self.hits = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self.inner.calls

    def complete(self, request: BackendRequest, refresh: bool = False) -> str:
        _sent.flag = False
        with self.tracer.span("backends.request", role=self.role) as span:
            completion = self.inner.complete(request, refresh=refresh)
            span["hit"] = not _sent.flag
        with self._lock:
            self.requests += 1
            self.hits += span["hit"]
        return completion


def make_backends(cache_dir: Path | None, upstream: Upstream, tracer=None) -> Backends:
    """Mock backends for every role; counted and traced when ``tracer`` is set."""
    roles = {}
    for role in ROLES:
        served = upstream if role in upstream.roles else LOCAL
        transport = UpstreamTransport(default_mock_transport(role), served)
        client = BackendClient(
            transport,
            cache_dir=cache_dir / role if cache_dir else None,
            backoff=upstream.backoff_s,
        )
        if tracer is not None:
            client = CountingClient(client, role, tracer)
        roles[role] = RoleRuntime(client=client, template=default_template(role))
    return Backends(roles=roles)


def backend_counts(backends: Backends) -> dict[str, float]:
    """Per-layer counters of traced backends built by ``make_backends``."""
    clients = {role: rt.client for role, rt in backends.roles.items()}
    requests = sum(c.requests for c in clients.values())
    hits = sum(c.hits for c in clients.values())
    sends = sum(c.inner.transport.sends for c in clients.values())
    counts = {
        "backends.requests": requests,
        "backends.sends": sends,
        "backends.upstream_calls": backends.upstream_calls,
        "backends.retries": sends - backends.upstream_calls,
        "backends.cache_hit_ratio": hits / requests if requests else 0.0,
    }
    for role, client in clients.items():
        counts[f"backends.{role}.upstream_calls"] = client.calls
    return counts
