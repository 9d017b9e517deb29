"""Fixtures for the networked hidden-database service tests."""

from __future__ import annotations

import pytest

from repro.service import (
    AsyncRemoteTopKInterface,
    HiddenDBServer,
    RemoteTopKInterface,
)


@pytest.fixture
def serve():
    """Start :class:`HiddenDBServer` instances that are stopped on teardown.

    Usage: ``server = serve(table, k=5, key_budget=100)``.
    """
    started: list[HiddenDBServer] = []

    def _serve(table, **kwargs) -> HiddenDBServer:
        server = HiddenDBServer(table, **kwargs).start()
        started.append(server)
        return server

    yield _serve
    for server in started:
        server.stop()


@pytest.fixture
def no_sleep():
    """A no-op backoff sleeper keeping retry tests instant."""
    return lambda _seconds: None


@pytest.fixture(
    params=[RemoteTopKInterface, AsyncRemoteTopKInterface],
    ids=["blocking", "asyncio"],
)
def client_cls(request):
    """Each wire client in turn: both run the same query/batch/retry flows,
    so client-semantics tests check both trampolines."""
    return request.param


@pytest.fixture
def make_client(client_cls):
    """Build ``client_cls`` clients that are closed on teardown.

    Usage: ``remote = make_client(server.url, max_retries=3)``.
    """
    made = []

    def _make(url, **kwargs):
        client = client_cls(url, **kwargs)
        made.append(client)
        return client

    yield _make
    for client in made:
        client.close()
