"""Checks of the test-only oracles themselves."""

import pytest

from bmc import InvalidParameterError
from oracles import golden_section_maximize


class TestGoldenSection:
    def test_recovers_parabola_maximum(self):
        x, val = golden_section_maximize(lambda x: -((x - 2.3) ** 2), 0.0, 10.0)
        assert x == pytest.approx(2.3, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidParameterError):
            golden_section_maximize(lambda x: x, 1.0, 1.0)
