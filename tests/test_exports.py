"""The package namespace: what `golodlab.__all__` promises is there."""

import golodlab


def test_every_exported_name_resolves():
    assert len(set(golodlab.__all__)) == len(golodlab.__all__)
    for name in golodlab.__all__:
        assert hasattr(golodlab, name), name


def test_deleted_names_are_not_exported():
    for name in ("massey_product", "MasseyResult", "homology_product"):
        assert name not in golodlab.__all__
        assert not hasattr(golodlab, name)
        assert not hasattr(golodlab.massey, name)
