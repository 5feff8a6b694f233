"""Seeded formula generators for the test suite's differential corpus.

Nothing under ``src/`` imports these; they only feed tests.
"""
