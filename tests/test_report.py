import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthrep.evaluate import EvalReport
from synthrep.report import _axis_value, _read_report, _write_report, emit_report


def make_report(acc, ci=0.02, kind="linear_probe"):
    return EvalReport(
        kind=kind,
        accuracy=acc,
        ci95=ci,
        count=100,
        config={},
        details={},
        dataset_id="d1",
        checkpoint_id="c1",
    )


def test_csv_layout_and_meta_comment(tmp_path):
    reports = [make_report(0.5), make_report(0.75)]
    path = str(tmp_path / "r.csv")
    emit_report(reports, "csv", path, axis_name="w", axis_values=[2.0, 8.0], meta_comment="abc123")
    lines = open(path).read().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1].startswith("kind,axis,value,accuracy,ci95,count")
    assert lines[2] == "linear_probe,w,2,0.5,0.02,100,d1,c1"
    assert lines[3] == "linear_probe,w,8,0.75,0.02,100,d1,c1"


def test_csv_without_axis(tmp_path):
    path = str(tmp_path / "r.csv")
    emit_report([make_report(0.5)], "csv", path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("kind,")  # no comment line without meta
    assert lines[1].split(",")[1:3] == ["", ""]


def test_table_header_and_alignment(tmp_path):
    path = str(tmp_path / "r.txt")
    emit_report(
        [make_report(0.123456789)],
        "table",
        path,
        axis_name="tau",
        axis_values=[0.5],
        meta_comment="h",
    )
    lines = open(path).read().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1].split()[:4] == ["kind", "axis", "value", "accuracy"]
    assert set(lines[2]) <= {"-", " "}
    assert "0.123457" in lines[3]  # 6 significant digits


def test_outputs_are_byte_deterministic(tmp_path):
    reports = [make_report(0.4), make_report(0.6), make_report(0.55)]
    vals = [1.0, 4.0, 2.0]
    for fmt, name in (("csv", "a.csv"), ("table", "a.txt"), ("svg", "a.svg")):
        p1, p2 = str(tmp_path / ("1" + name)), str(tmp_path / ("2" + name))
        emit_report(reports, fmt, p1, axis_name="l", axis_values=vals, title="t")
        emit_report(reports, fmt, p2, axis_name="l", axis_values=vals, title="t")
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_svg_structure(tmp_path):
    reports = [make_report(0.4), make_report(0.6)]
    path = str(tmp_path / "r.svg")
    emit_report(
        reports,
        "svg",
        path,
        axis_name="m",
        axis_values=[2.0, 6.0],
        title="sweep",
        meta_comment="deadbeef",
    )
    text = open(path).read()
    assert text.startswith('<?xml version="1.0"')
    assert "<!-- config_hash=deadbeef -->" in text
    assert text.count("<circle") == 2
    assert "<polyline" in text
    assert ">sweep</text>" in text
    assert ">m</text>" in text
    assert text.rstrip().endswith("</svg>")


def test_svg_requires_numeric_axis(tmp_path):
    with pytest.raises(ValueError):
        emit_report([make_report(0.5)], "svg", str(tmp_path / "x.svg"))
    with pytest.raises(ValueError):
        emit_report(
            [make_report(0.5), make_report(0.6)],
            "svg",
            str(tmp_path / "y.svg"),
            axis_name="g",
            axis_values=["", 2.0],
        )


def test_svg_sorts_points_by_axis(tmp_path):
    # polyline x coordinates must increase even when inputs are unsorted
    reports = [make_report(0.7), make_report(0.3), make_report(0.5)]
    path = str(tmp_path / "s.svg")
    emit_report(reports, "svg", path, axis_name="w", axis_values=[8.0, 1.0, 4.0])
    text = open(path).read()
    line = next(l for l in text.splitlines() if l.startswith("<polyline"))
    pts = line.split('points="')[1].split('"')[0].split()
    xs = [float(p.split(",")[0]) for p in pts]
    assert xs == sorted(xs)


def test_emit_report_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", str(tmp_path / "e.csv"))
    with pytest.raises(ValueError):
        emit_report([make_report(0.5)], "png", str(tmp_path / "e.png"))
    with pytest.raises(ValueError):
        emit_report(
            [make_report(0.5)], "csv", str(tmp_path / "e.csv"), axis_values=[1.0, 2.0]
        )


# -- report.json round trip -------------------------------------------------------

# derandomised with a fixed example count, so every run checks the same files
_PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# what the reader accepts in a string cell: no character that splits a CSV row
_CELL = st.text(st.characters(exclude_characters=',"\r\n'), max_size=10)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _payloads():
    """(EvalReport, extras) as probe, fewshot and a sweep cell write them."""
    report = st.builds(
        EvalReport,
        kind=_CELL,
        accuracy=st.floats(0.0, 1.0),
        ci95=st.floats(0.0, allow_infinity=False),
        count=st.integers(min_value=1),
        config=st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
        details=st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
        dataset_id=_CELL,
        checkpoint_id=_CELL,
    )
    probe = st.fixed_dictionaries({"config_hash": st.text("0123456789abcdef", max_size=64)})
    cell = st.fixed_dictionaries(
        {"axis": st.sampled_from(["w", "m", "l", "epochs"]),
         "value": st.text(max_size=6) | st.integers() | st.floats() | st.booleans()}
    )
    return st.tuples(report, probe | st.just({}) | cell)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report_json")


@_PROFILE
@given(payload=_payloads())
# a stored axis value beyond float's range is no number, not an OverflowError
@example(payload=(make_report(0.5), {"axis": "w", "value": 10**400}))
def test_report_json_write_read_write_is_byte_identical(report_dir, payload):
    report, extras = payload
    first, second = report_dir / "first.json", report_dir / "second.json"
    _write_report(str(first), report, **extras)
    back, value = _read_report(str(first))
    assert back == report
    assert value == _axis_value(extras.get("value"))
    _write_report(str(second), back, **extras)
    assert second.read_bytes() == first.read_bytes()


@_PROFILE
@given(payload=_payloads())
def test_truncated_report_json_reads_the_same_or_names_the_file(report_dir, payload):
    report, extras = payload
    full, cut = report_dir / "full.json", report_dir / "cut.json"
    _write_report(str(full), report, **extras)
    data = full.read_bytes()
    expected = _read_report(str(full))
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        try:
            assert _read_report(str(cut)) == expected
        except ValueError as exc:
            assert str(exc).startswith(f"{cut}: ")
