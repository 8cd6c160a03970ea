"""Tests for repro.geo.countries."""

import pytest

from repro.geo.countries import validate_country


class TestValidation:
    def test_accepts_alpha2(self):
        assert validate_country("NL") == "NL"

    @pytest.mark.parametrize("code", ["ru", "R", "RUS", "R1", ""])
    def test_rejects_malformed(self, code):
        with pytest.raises(ValueError):
            validate_country(code)

