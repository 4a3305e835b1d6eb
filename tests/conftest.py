import dataclasses
import json
import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import shellsde as s  # noqa: E402

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def novikov():
    return s.build_novikov(2.0, 1.0)


@pytest.fixture(scope="session")
def goy():
    return s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0)


@pytest.fixture(scope="session")
def sabra():
    return s.build_sabra(1.0, -1.25, 0.25, 2.0, 1.0, 0.125)


@pytest.fixture(scope="session")
def goy_scaled(goy):
    """GOY with every B scaled by 1.1: still conservative, but its grams B B^T are not the identity."""
    return dataclasses.replace(
        goy, interactions=tuple(dataclasses.replace(it, B=s.BilinearMap(1.1 * it.B.entries)) for it in goy.interactions)
    )


def spec_to_dict(spec):
    """The model-file document of ``spec``, the inverse of :func:`shellsde.modelio.spec_from_dict`."""
    return {
        "d": spec.d,
        "lambda": spec.lam,
        "sigma": spec.sigma,
        "interactions": [
            {"id": it.iid, "r": it.r, "h": it.h, "k": it.k, "B": it.B.entries.tolist()}
            for it in spec.interactions
        ],
        "pairing": dict(sorted(spec.pairing.items())),
        "istar": sorted(spec.istar),
        "meta": dict(spec.meta),
    }


def save_model(spec, path):
    """Write ``spec`` as a model file that :func:`shellsde.modelio.load_model` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
