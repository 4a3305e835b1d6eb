import numpy as np
import pytest

import shellsde as s
from conftest import save_model, spec_to_dict
from shellsde.modelio import ModelFileError, load_model, spec_from_dict


def test_roundtrip_preserves_model(goy, tmp_path):
    path = tmp_path / "goy.json"
    save_model(goy, str(path))
    back = load_model(str(path))
    assert back.d == goy.d
    assert back.lam == goy.lam
    assert back.sigma == goy.sigma
    assert back.ids == goy.ids
    for iid in goy.ids:
        a, b = goy.interaction(iid), back.interaction(iid)
        assert (a.r, a.h, a.k) == (b.r, b.h, b.k)
        assert np.array_equal(a.B.entries, b.B.entries)
    assert s.validate_model(back).accepted


def test_preset_expressions():
    spec = load_model("novikov:lambda=2.5,sigma=0.5")
    assert spec.lam == 2.5 and spec.sigma == 0.5
    spec = load_model("goy")
    assert spec.meta["preset"] == "goy"
    spec = load_model("sabra")
    assert s.validate_model(spec).accepted


def test_preset_bad_parameters():
    with pytest.raises(ModelFileError):
        load_model("goy:a=1,b=0,c=0.5")  # sum constraint
    with pytest.raises(ModelFileError):
        load_model("novikov:nope=3")
    with pytest.raises(ModelFileError):
        load_model("novikov:lambda=abc")


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ModelFileError, match="neither a preset"):
        load_model(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"d\": 1,\n")
    with pytest.raises(ModelFileError, match="bad.json:"):
        load_model(str(bad))


def test_missing_field_reported(tmp_path, novikov):
    doc = spec_to_dict(novikov)
    del doc["pairing"]
    with pytest.raises(ModelFileError, match="pairing"):
        spec_from_dict(doc)
