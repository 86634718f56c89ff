"""Shared fixtures: the large paired sweep backing the headline comparisons."""

import pytest

from ofdmce.harness import SimConfig, gap_report, sweep

# High-SNR region around the 1e-3 crossings of the three working curves,
# including the two points the error-floor check reads. 1e5 subframes per
# point keeps the crossing standard errors near 0.02 dB; the run is shared
# by every test that needs it and uses every core, which moves no record.
HEADLINE_CONFIG = SimConfig(
    snr_points_db=(25.0, 27.5, 30.0),
    subframes_per_point=100_000,
)


@pytest.fixture(scope="session")
def headline_records():
    """Full four-estimator sweep of HEADLINE_CONFIG (slow, computed once)."""
    return sweep(HEADLINE_CONFIG)


@pytest.fixture(scope="session")
def headline_gaps(headline_records):
    """Crossing report at the 1e-3 BER level for the headline sweep."""
    return gap_report(headline_records, (1e-3,))
