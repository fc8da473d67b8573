"""The suite-wide fixtures in ``conftest.py`` keep tests independent.

These tests run in file order: the first leaves state behind and the
second checks that none of it reached it.
"""

import os

from repro.sanitizer import runtime as sanit


class TestSanitizerLevelDoesNotLeak:
    def test_a_syncs_full_from_a_patched_env(self, monkeypatch):
        monkeypatch.setenv(sanit.ENV_SANITIZE, "full")
        assert sanit.sync_from_env() == "full"

    def test_b_sees_the_level_its_own_env_gives(self):
        # Under a suite-wide REPRO_SANITIZE=full this is "full" anyway.
        expected = os.environ.get(sanit.ENV_SANITIZE, "").strip().lower() or "off"
        assert sanit.current_level() == (expected if expected in sanit.LEVELS else "off")
