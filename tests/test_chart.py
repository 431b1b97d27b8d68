from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import date
from xml.sax import saxutils

import pytest

import seqcast.chart as chart
from seqcast.chart import render_price_chart

SVG_NS = "{http://www.w3.org/2000/svg}"
TITLE = "VNQ actual vs predicted"


def render_sample():
    days = [date(2022, 1, d) for d in (3, 4, 5, 6, 7)]
    actual = [10.0, 11.0, 10.5, 12.0, 12.5]
    predicted = [10.2, 10.8, 10.9, 11.7, 12.9]
    return render_price_chart(days, actual, predicted, title="VNQ actual vs predicted")


def test_chart_is_valid_svg_with_two_polylines():
    root = ET.fromstring(render_sample())
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    colors = {p.get("stroke") for p in polylines}
    assert colors == {"green", "red"}


def test_chart_has_legend_and_title():
    root = ET.fromstring(render_sample())
    texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "actual" in texts
    assert "predicted" in texts
    assert "VNQ actual vs predicted" in texts


def test_chart_point_counts_match_series():
    root = ET.fromstring(render_sample())
    for polyline in root.findall(f".//{SVG_NS}polyline"):
        assert len(polyline.get("points").split()) == 5


def test_chart_draws_a_higher_price_higher():
    # SVG's y axis points down: a larger value has a smaller y
    root = ET.fromstring(render_sample())
    actual = next(p for p in root.findall(f".//{SVG_NS}polyline") if p.get("stroke") == "green")
    ys = [float(point.split(",")[1]) for point in actual.get("points").split()]
    assert ys[1] < ys[0] and ys[4] == min(ys)  # 11.0 over 10.0; 12.5 the highest


def test_chart_handles_constant_series():
    svg = render_price_chart([date(2022, 1, 3), date(2022, 1, 4)], [5.0, 5.0], [5.0, 5.0], TITLE)
    ET.fromstring(svg)


def test_chart_rejects_mismatched_lengths():
    days = [date(2022, 1, 3), date(2022, 1, 4)]
    with pytest.raises(ValueError):
        render_price_chart(days, [1.0, 2.0], [1.0], TITLE)
    with pytest.raises(ValueError):
        render_price_chart(days[:1], [1.0, 2.0], [1.0, 2.0], TITLE)
    with pytest.raises(ValueError):
        render_price_chart([], [], [], TITLE)


def _render_markup():
    labels = ["<a>", "b & c", "d > e", 'say "f"', "g's"]
    title = """<VNQ> & "actual" vs 'predicted'"""
    return render_price_chart(labels, [1.0, 2.0, 3.0, 2.5, 2.0], [1.1, 1.9, 2.8, 2.6, 2.1], title)


def test_chart_escapes_markup_in_title_and_labels():
    svg = _render_markup()
    assert """&lt;VNQ&gt; &amp; "actual" vs 'predicted'</text>""" in svg
    for label in ("&lt;a&gt;", "b &amp; c", "d &gt; e", 'say "f"', "g's"):
        assert f">{label}</text>" in svg
    texts = [t.text for t in ET.fromstring(svg).findall(f".//{SVG_NS}text")]
    assert """<VNQ> & "actual" vs 'predicted'""" in texts
    assert {"<a>", "b & c", "d > e", 'say "f"', "g's"} <= set(texts)


def test_chart_escapes_as_xml_sax_saxutils_does(monkeypatch):
    svg = _render_markup()
    monkeypatch.setattr(chart, "escape", lambda text, quote=True: saxutils.escape(text))
    assert svg == _render_markup()
