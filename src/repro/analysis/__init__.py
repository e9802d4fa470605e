"""reprosan — the runtime lock verifier for the restart pipeline.

Installed only by ``pytest --reprosan`` (``tests/conftest.py``): an
Eraser-style lockset over the classes that own a repro lock, an audit
of blocking calls made under a repro lock, the observed lock order, and
the footprint budget's per-test residue.  See
:mod:`repro.analysis.reprosan` and docs/ANALYSIS.md.
"""
