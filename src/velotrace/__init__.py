"""velotrace: trip analytics and short-term demand forecasting for GPS-tracked
cycling data."""

__version__ = "0.1.0"

from .covariates import (
    CalendarEntry,
    CorrelationReport,
    DailyRow,
    PollutionTable,
    WeatherTable,
    daily_join,
    event_impact,
    holiday_impact,
    parse_calendar,
    parse_pollution,
    parse_weather,
    pearson,
    week_contrast,
)
from .descriptive import (
    Histogram,
    TemporalProfile,
    histogram,
    monthly_change,
    share_below,
    temporal_profile,
)
from .features import (
    FeatureMatrix,
    MinMaxScaler,
    SlotSeries,
    SplitPlan,
    aggregate_slots,
    build_features,
    chronological_split,
    feature_target_correlation,
)
from .ingest import PointTable, Rejection, TripTable, assemble_trips, parse_points
from .models import ModelSpec, ablate, evaluate, metrics
from .spatial import DensityGrid, HubSpreadReport, build_density_grid, grid_diff, hub_spread
from .synth import Hub, RainEvent, SynthConfig, TempCurve, generate
