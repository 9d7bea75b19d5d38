"""Buy-or-wait decisions for airline tickets from historical price quotes.

The library ingests quote CSVs, extracts per-day features, trains a small
from-scratch model zoo, simulates the resulting purchase policies against
benchmark prices, and extends trained models to routes without history via
per-route HMM templates. The `farecast` CLI wires the same pieces together.
"""
