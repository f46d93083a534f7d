"""Next-slot forecasting models: `linear`, `tree` with `forest` and `boosting`
on it, `lstm`; their table, fitting and scoring in `evaluate`, `metrics`, and
versioned JSON artifacts in `serialize`."""
