"""Versioned JSON artifacts for trained models. An artifact is the spec header
(format version, kind, seed, hyperparameters when the kind has them, column
names and fit meta) plus `state`: the model's own `state()`, with the scaler
bounds a recurrent model was trained with. Loading rebuilds the model with
its class's `from_state`, so predictions match the original exactly (JSON
floats round-trip). A missing or malformed field raises SchemaError."""

from __future__ import annotations

from dataclasses import asdict

from ..errors import ParameterError, SchemaError
from ..features import MinMaxScaler
from .evaluate import MODELS, ModelSpec, TrainedModel

FORMAT_VERSION = 1


def model_artifact(tm: TrainedModel, column_names: list[str]) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": tm.spec.kind,
        "seed": tm.spec.seed,
        "column_names": list(column_names),
        "meta": tm.meta,
        "state": tm.model.state(),
    }
    if tm.spec.params is not None:
        doc["hyperparams"] = asdict(tm.spec.params)
    if tm.scaler is not None:
        doc["state"]["scaler"] = tm.scaler.as_dict()
    return doc


def load_artifact(doc: dict) -> TrainedModel:
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise SchemaError(f"unsupported artifact version {doc['format_version']!r}")
        spec = ModelSpec(doc["kind"], doc.get("hyperparams", {}), int(doc.get("seed", 0)))
        state = doc["state"]
        model = MODELS[spec.kind].from_state(spec.params, state, spec.seed)
        scaler = MinMaxScaler.from_dict(state["scaler"]) if spec.lookback else None
        meta = dict(doc.get("meta", {}))
    except KeyError as e:
        raise SchemaError(f"model artifact lacks field {e}") from None
    except (AttributeError, TypeError, ValueError, ParameterError) as e:
        raise SchemaError(f"malformed model artifact: {e}") from None
    return TrainedModel(spec, model, scaler, meta)
