"""Synthetic-data pipeline for cross-domain implicit discourse relation
classification: generation, screening, adaptation, and multi-gold
evaluation with cross-run significance testing."""

__version__ = "0.1.0"
