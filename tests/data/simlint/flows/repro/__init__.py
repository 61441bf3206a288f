"""Fixture universe for the flows pass (never imported by Python).

The tree mirrors the real package shape (``repro.core``,
``repro.experiments``, ...) so :data:`repro.analysis.flows.layers.
REPRO_LAYERS` ranks it exactly like the production tree, with one
seeded defect per layer-map declaration plus the worker-purity pair.
Linted standalone by
``tests/test_simlint_flows.py``; excluded from repo-gate lint runs.
"""
