"""The one writer and reader of report.json, and its deterministic renderings.

report.json holds an EvalReport's fields and its command's extras. CSV and
plain-text tables list one row per report; the SVG renderer draws a
metric-versus-axis sweep with 95% error bars. The SVG is assembled by hand
from fixed-precision strings so identical inputs produce byte-identical
files (plotting libraries embed run-dependent metadata).
"""

from __future__ import annotations

import re
from dataclasses import asdict

import numpy as np

from .evaluate import EvalReport
from .manifest import _number, _of_type, _read_field, _read_text, _write_lines, canonical_json

__all__ = ["emit_report"]

# the file suffix of each format
_SUFFIXES = {"table": "txt", "csv": "csv", "svg": "svg"}
_COLUMNS = (
    "kind",
    "axis",
    "value",
    "accuracy",
    "ci95",
    "count",
    "dataset_id",
    "checkpoint_id",
)
# a character that splits a CSV row, and one XML 1.0 forbids: a control character
# other than tab, LF and CR, a surrogate, U+FFFE or U+FFFF
_CSV_BREAK = re.compile('[,"\r\n]')
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _refuse(pattern: re.Pattern, text: str, what: str) -> None:
    """A ValueError if `text`, the value of `what`, holds a character `pattern` matches."""
    if bad := pattern.search(text):
        raise ValueError(f"{what} {text!r} holds {bad.group()!r}, which a report cannot render")


def _axis_value(value):
    """A sweep axis value as a float, or "" (a blank cell) if it is no finite
    number; a JSON boolean is none, as in every config."""
    try:
        number = float(_of_type(str, int, float)(value))
    except (TypeError, ValueError, OverflowError):
        return ""
    return number if np.isfinite(number) else ""


def _write_report(path: str, report: EvalReport, **extras) -> None:
    """Write `report` as the report.json at `path`, with `extras` beside its fields."""
    _write_lines(path, [canonical_json(dict(asdict(report), **extras))])


def _read_report(path: str) -> tuple[EvalReport, object]:
    """(EvalReport, sweep axis value) of a report.json; each error names the file."""
    payload = _read_text(path, "object", "a report")
    record = {"config": {}, "details": {}, "dataset_id": "", "checkpoint_id": "", **payload}
    fields = {
        "kind": _of_type(str),
        "accuracy": _number,
        "ci95": _number,
        "count": _of_type(int),
        "config": _of_type(dict),
        "details": _of_type(dict),
        "dataset_id": _of_type(str),
        "checkpoint_id": _of_type(str),
    }
    args = {
        name: _read_field(record, name, convert, path, "report")
        for name, convert in fields.items()
    }
    for name in ("kind", "dataset_id", "checkpoint_id"):
        _refuse(_CSV_BREAK, args[name], f"{path}: report field {name!r} value")
    try:
        report = EvalReport(**args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return report, _axis_value(payload.get("value"))


def _num(v: float) -> str:
    return "%.6g" % float(v)


def _xml_text(text: str) -> str:
    """text with the characters XML reserves in a text node escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _rows(reports, axis_name, axis_values):
    if axis_values is None:
        axis_values = [""] * len(reports)
    if len(axis_values) != len(reports):
        raise ValueError("axis_values must parallel reports")
    rows = []
    for rep, val in zip(reports, axis_values):
        rows.append(
            (
                rep.kind,
                axis_name or "",
                _num(val) if val != "" else "",
                _num(rep.accuracy),
                _num(rep.ci95),
                str(rep.count),
                rep.dataset_id,
                rep.checkpoint_id,
            )
        )
    return rows


def _csv_lines(rows):
    return [",".join(_COLUMNS), *map(",".join, rows)]


def _table_lines(rows):
    table = [_COLUMNS, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def _svg_lines(reports, axis_name, axis_values, title, meta_comment):
    if axis_values is None or any(v == "" for v in axis_values):
        raise ValueError("svg output requires numeric axis_values")
    pts = sorted(zip([float(v) for v in axis_values], reports), key=lambda t: t[0])
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1].accuracy for p in pts])
    cis = np.array([p[1].ci95 for p in pts])

    width, height = 640.0, 440.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    plot_w, plot_h = width - left - right, height - top - bottom

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_lo = float(np.min(ys - cis))
    y_hi = float(np.max(ys + cis))
    pad = max(0.05 * (y_hi - y_lo), 1e-3)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    if meta_comment:
        parts.append(f"<!-- config_hash={meta_comment} -->")
    parts += [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(width)}" '
        f'height="{_num(height)}" viewBox="0 0 {_num(width)} {_num(height)}">',
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="white"/>',
        f'<text x="{_num(width / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_xml_text(title)}</text>',
        # axes
        f'<line x1="{_num(left)}" y1="{_num(top)}" x2="{_num(left)}" '
        f'y2="{_num(top + plot_h)}" stroke="black"/>',
        f'<line x1="{_num(left)}" y1="{_num(top + plot_h)}" '
        f'x2="{_num(left + plot_w)}" y2="{_num(top + plot_h)}" stroke="black"/>',
        f'<text x="{_num(left + plot_w / 2)}" y="{_num(height - 12)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_xml_text(axis_name)}</text>",
        f'<text x="18" y="{_num(top + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_num(top + plot_h / 2)})">accuracy</text>',
    ]
    # ticks: the axis endpoints plus each data x
    for v in sorted(set(xs.tolist())):
        parts.append(
            f'<line x1="{_num(sx(v))}" y1="{_num(top + plot_h)}" '
            f'x2="{_num(sx(v))}" y2="{_num(top + plot_h + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_num(sx(v))}" y="{_num(top + plot_h + 20)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{_num(v)}</text>'
        )
    for v in np.linspace(y_lo, y_hi, 5):
        parts.append(
            f'<line x1="{_num(left - 5)}" y1="{_num(sy(v))}" x2="{_num(left)}" '
            f'y2="{_num(sy(v))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_num(left - 9)}" y="{_num(sy(v) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_num(v)}</text>'
        )
    # error bars, polyline, points
    for x, y, c in zip(xs, ys, cis):
        parts.append(
            f'<line x1="{_num(sx(x))}" y1="{_num(sy(y - c))}" x2="{_num(sx(x))}" '
            f'y2="{_num(sy(y + c))}" stroke="steelblue" stroke-width="1.5"/>'
        )
    poly = " ".join(f"{_num(sx(x))},{_num(sy(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_num(sx(x))}" cy="{_num(sy(y))}" r="4" fill="steelblue"/>'
        )
    parts.append("</svg>")
    return parts


def emit_report(
    reports: list[EvalReport],
    fmt: str,
    path: str,
    axis_name: str | None = None,
    axis_values: list | None = None,
    title: str = "",
    meta_comment: str = "",
) -> str:
    """Write reports as a table, CSV, or SVG sweep plot. Returns the path.

    meta_comment, when given, is embedded as a comment line (csv/table) or an
    XML comment (svg) so rendered artifacts carry their config hash. An
    axis_name holding a character that splits a CSV row or that XML 1.0
    forbids, or a title holding the latter, is refused in every format,
    named as the --axis or --title it comes from.
    """
    if not reports:
        raise ValueError("no reports to render")
    if fmt not in _SUFFIXES:
        raise ValueError(f"unknown format {fmt!r}; choose from {tuple(_SUFFIXES)}")
    _refuse(_CSV_BREAK, axis_name or "", "--axis")
    _refuse(_NOT_XML, axis_name or "", "--axis")
    _refuse(_NOT_XML, title, "--title")
    rows = _rows(reports, axis_name, axis_values)
    if fmt == "svg":
        lines = _svg_lines(reports, axis_name or "x", axis_values, title, meta_comment)
    else:
        lines = [f"# config_hash={meta_comment}"] if meta_comment else []
        lines += (_csv_lines if fmt == "csv" else _table_lines)(rows)
    _write_lines(path, lines)
    return path
