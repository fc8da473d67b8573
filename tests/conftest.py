"""Suite-wide fixtures.

The run ledger defaults to appending under ``~/.cache/repro``; tests
must never touch the developer's real ledger, so the switch is forced
off for every test.  Ledger tests opt back in with ``monkeypatch`` or
by constructing :class:`~repro.telemetry.ledger.RunLedger` on a tmp
path directly.

Failure capture is likewise forced off (a failing test's runner jobs
must not litter ``.repro-failures/``); capture/replay tests opt back in
with ``monkeypatch``.  ``REPRO_SANITIZE`` is deliberately **left
alone** — CI's ``sanitize`` job runs the whole tier-1 suite under
``REPRO_SANITIZE=full`` — but the programmatic level is re-synced from
the environment after every test so a test that called ``set_level``
(or synced a ``monkeypatch``-ed variable) can't leak its level into the
next one.  The re-sync is a teardown hook, not a fixture: it must run
after ``monkeypatch`` has restored the environment, and autouse
fixtures are set up in name order, so a fixture's teardown could run
before that restore.
"""

import pytest

from repro.sanitizer import runtime as sanit


@pytest.fixture(autouse=True)
def _ledger_off(monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)


@pytest.fixture(autouse=True)
def _capture_off(monkeypatch):
    monkeypatch.setenv("REPRO_CAPTURE", "off")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield  # every fixture finalizer, monkeypatch's included, has run
    sanit.sync_from_env(default="off")
