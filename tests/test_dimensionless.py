import dataclasses

import pytest

from stswall import DimensionlessGroups
from stswall.errors import ConfigError


class TestGroups:
    def test_serialization_round_trip(self):
        g = DimensionlessGroups(fo_m=9e-2, fo_t=7e-2, gamma=7e-2, delta=5e-2)
        d = dataclasses.asdict(g)
        assert d["fo_m"] == 9e-2
        assert set(d["biot_left"]) == {"m_theta", "t_t", "t_theta", "t_g"}

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            DimensionlessGroups(fo_m=-1.0, fo_t=1.0)
