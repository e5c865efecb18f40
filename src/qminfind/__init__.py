"""Simulator and statistical verifier for quantum minimum finding.

The algorithm keeps a threshold index and repeatedly runs amplitude-
amplification search for any entry smaller than the threshold, accepting
each strict improvement, until a step budget of 22.5*sqrt(N) + 1.4*lg^2 N
runs out.  This package provides two behaviorally identical execution
backends (an exact statevector simulation and a closed-form sampler), the
closed-form cost bounds, and a Monte Carlo harness that checks the
claimed statistics at scale.
"""

__version__ = "0.1.0"
