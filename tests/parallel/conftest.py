"""Fixtures shared by the sharded-execution tests."""

import pytest

from repro.parallel import Backend


class RemoteStubBackend(Backend):
    """Claims to run tasks in another process; opens no sockets.

    ``map`` fails loudly, so a caller that forgets to check
    :attr:`Backend.remote` before handing over closures is caught.
    """

    name = "remote-stub"
    remote = True

    def map(self, fn, items):
        raise AssertionError("closures were handed to a remote backend")


@pytest.fixture
def remote_backend():
    with RemoteStubBackend() as backend:
        yield backend
