"""velotrace: trip analytics and short-term demand forecasting for GPS-tracked
cycling data, run through the `velotrace` command (`velotrace.cli`)."""

__version__ = "0.1.0"
