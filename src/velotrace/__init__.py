"""velotrace: trip analytics and short-term demand forecasting for GPS-tracked
cycling data.

The names below are imported from their layer on first access (PEP 562), so
importing the package, or its `cli`, loads no layer until a name needs it."""

import importlib

__version__ = "0.1.0"


def layer_getattr(namespace: dict, layers: dict[str, tuple[str, ...]]):
    """A module `__getattr__` that imports each name listed under its layer
    (a velotrace module) on the name's first lookup and keeps it in the
    module's `namespace`, where later lookups find it, or what replaced it."""
    layer_of = {name: layer for layer, names in layers.items() for name in names}

    def __getattr__(name: str):
        layer = layer_of.get(name)
        if layer is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
        return value

    return __getattr__


__getattr__ = layer_getattr(globals(), {
    "covariates": ("CalendarEntry", "CorrelationReport", "DailyRow", "PollutionTable", "WeatherTable",
                   "daily_join", "event_impact", "holiday_impact", "parse_calendar", "parse_pollution",
                   "parse_weather", "pearson", "week_contrast"),
    "descriptive": ("Histogram", "TemporalProfile", "histogram", "monthly_change", "share_below",
                    "temporal_profile"),
    "features": ("FeatureMatrix", "MinMaxScaler", "SlotSeries", "SplitPlan", "aggregate_slots", "build_features",
                 "chronological_split", "feature_target_correlation"),
    "ingest": ("PointTable", "Rejection", "TripTable", "assemble_trips", "parse_points"),
    "models": ("ModelSpec", "ablate", "evaluate", "metrics"),
    "spatial": ("DensityGrid", "HubSpreadReport", "build_density_grid", "grid_diff", "hub_spread"),
    "synth": ("Hub", "RainEvent", "SynthConfig", "TempCurve", "generate"),
})
