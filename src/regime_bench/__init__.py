"""Regime-stratified stress-test harness for CGM time-series imputation."""

__version__ = "0.1.0"
