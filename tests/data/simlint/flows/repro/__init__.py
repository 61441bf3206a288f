"""Fixture universe for the flows pass (never imported by Python).

The tree mirrors the real package shape (``repro.experiments``) so the
worker-purity rule names modules exactly as in the production tree; it
seeds the worker-purity pair.  Linted standalone by
``tests/test_simlint_flows.py``; excluded from repo-gate lint runs.
"""
