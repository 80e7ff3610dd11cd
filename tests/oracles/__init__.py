"""Frozen reference implementations the differential suites compare against.

Each module keeps an original, straightforward implementation of one
pipeline stage -- trust bookkeeping, §3.2 clustering, the §3.2 window
decision, and the neighbourhood scans -- so the randomized and property
suites can prove the production code under ``src/`` bit-identical to
it.  Nothing under ``src/`` imports these.
"""
