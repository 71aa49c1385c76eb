"""Shape test for the planted-skew benchmark (repro.bench.skew) at a
small size.  Skew is virtual time, so the ratios are exact replay facts
and hold on any machine."""

from repro.bench.skew import MODES, skew_section


def test_skew_section_shape_at_small_size():
    section = skew_section(n_vertices=60, n_edges=240)
    assert set(section["modes"]) == set(MODES)
    for mode, run in section["modes"].items():
        assert run["exact"], mode
    assert section["live_over_none"] >= 1.5
    live = section["modes"]["live"]
    assert live["rebalances"] >= 1
    assert live["owners"] > 1
    digests = section["determinism"]["digests"]
    assert section["determinism"]["identical"]
    assert digests[0] == digests[1] != ""
