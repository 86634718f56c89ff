"""OFDM link simulation and DFT-based channel estimation.

Its modules cover the pinned-normalization DFT wrappers
(:mod:`ofdmce.spectral`), the resource grid and its conventions
(:mod:`ofdmce.phy`), tapped-delay-line fading channels and the noise model
(:mod:`ofdmce.channel`), the channel estimators themselves
(:mod:`ofdmce.estimators`), the Monte Carlo BER harness
(:mod:`ofdmce.harness`), and the command line front end (:mod:`ofdmce.cli`).
"""

__version__ = "0.1.0"
