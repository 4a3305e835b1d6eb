"""Model files and preset addressing.

A model file is a single JSON document mirroring :class:`ModelSpec`:

.. code-block:: json

    {
      "d": 1,
      "lambda": 2.0,
      "sigma": 1.0,
      "interactions": [
        {"id": "1", "r": -1, "h": -1, "k": 0.5, "B": [[[1.0]]]},
        {"id": "2", "r": 1, "h": 0, "k": -1.0, "B": [[[1.0]]]}
      ],
      "pairing": {"1": "2", "2": "1"},
      "istar": ["1"],
      "meta": {"preset": "novikov"}
    }

Presets are addressable by name with optional parameters, for example
``novikov``, ``goy:a=1,b=-1.5,c=0.5,lambda=2,sigma_tilde=1`` or
``sabra:a=1,b=-1.25,c=0.25,lambda=2,sigma1_tilde=1,sigma2_tilde=0.125``.
"""
from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .algebra import (
    BilinearMap,
    Interaction,
    MalformedModelError,
    ModelSpec,
    build_goy,
    build_novikov,
    build_sabra,
)

__all__ = ["ModelFileError", "spec_from_dict", "load_model", "PRESETS"]


class ModelFileError(ValueError):
    pass


class ModelRejectedError(ModelFileError):
    """Reference parsed fine but the model parameters violate a precondition."""


def spec_from_dict(doc: Mapping) -> ModelSpec:
    try:
        inters = tuple(
            Interaction(
                iid=str(item["id"]),
                r=int(item["r"]),
                h=int(item["h"]),
                k=float(item["k"]),
                B=BilinearMap(np.asarray(item["B"], dtype=float)),
            )
            for item in doc["interactions"]
        )
        return ModelSpec(
            d=int(doc["d"]),
            lam=float(doc["lambda"]),
            sigma=float(doc["sigma"]),
            interactions=inters,
            pairing={str(a): str(b) for a, b in doc["pairing"].items()},
            istar=frozenset(str(s) for s in doc["istar"]),
            meta=dict(doc.get("meta", {})),
        )
    except MalformedModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"model document is missing or mistypes a field: {exc}") from exc


_PRESET_DEFAULTS = {
    "novikov": {"lambda": 2.0, "sigma": 1.0},
    "goy": {"a": 1.0, "b": -1.5, "c": 0.5, "lambda": 2.0, "sigma_tilde": 1.0},
    "sabra": {
        "a": 1.0,
        "b": -1.25,
        "c": 0.25,
        "lambda": 2.0,
        "sigma1_tilde": 1.0,
        "sigma2_tilde": 0.125,
    },
}

PRESETS = tuple(_PRESET_DEFAULTS)


def _build_preset(name: str, params: dict) -> ModelSpec:
    defaults = dict(_PRESET_DEFAULTS[name])
    unknown = set(params) - set(defaults)
    if unknown:
        raise ModelFileError(f"unknown parameters {sorted(unknown)} for preset {name!r}")
    defaults.update(params)
    if name == "novikov":
        return build_novikov(defaults["lambda"], defaults["sigma"])
    if name == "goy":
        return build_goy(
            defaults["a"], defaults["b"], defaults["c"], defaults["lambda"], defaults["sigma_tilde"]
        )
    return build_sabra(
        defaults["a"],
        defaults["b"],
        defaults["c"],
        defaults["lambda"],
        defaults["sigma1_tilde"],
        defaults["sigma2_tilde"],
    )


def load_model(ref: str) -> ModelSpec:
    """Resolve a model reference: a JSON file path or a preset expression."""
    name, _, paramstr = ref.partition(":")
    if name in _PRESET_DEFAULTS:
        params = {}
        if paramstr:
            for piece in paramstr.split(","):
                key, _, val = piece.partition("=")
                if not _ or not key:
                    raise ModelFileError(f"bad preset parameter {piece!r}; expected key=value")
                try:
                    params[key.strip()] = float(val)
                except ValueError as exc:
                    raise ModelFileError(f"parameter {key!r} is not a number: {val!r}") from exc
        try:
            return _build_preset(name, params)
        except ModelFileError:
            raise
        except ValueError as exc:
            raise ModelRejectedError(f"preset {name!r} rejected: {exc}") from exc
    if not os.path.exists(ref):
        raise ModelFileError(f"model reference {ref!r} is neither a preset nor an existing file")
    with open(ref, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{ref}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return spec_from_dict(doc)
