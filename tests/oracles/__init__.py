"""Frozen reference implementations the differential suites compare against.

Each module keeps an original, straightforward implementation of one
pipeline stage -- trust bookkeeping, §3.2 clustering, the §3.2 window
decision, the neighbourhood scans, run scoring, and the per-seat shadow
mirror -- so the randomized, property and differential suites can prove
the production code under ``src/`` bit-identical to it.  Nothing under
``src/`` imports these.
"""
