"""Tests for repro.registry.tld."""

from repro.registry.tld import (
    RUSSIAN_TLDS,
    STUDY_TLDS,
    is_russian_tld,
)


class TestRussianTlds:
    def test_su_counts_for_dependency(self):
        assert is_russian_tld("su")

    def test_unicode_rf(self):
        assert is_russian_tld("рф")
        assert is_russian_tld("xn--p1ai")

    def test_case_and_dot_insensitive(self):
        assert is_russian_tld(".RU")

    def test_none(self):
        assert not is_russian_tld(None)

    def test_western(self):
        assert not is_russian_tld("com")

    def test_sets_consistent(self):
        assert STUDY_TLDS < RUSSIAN_TLDS
