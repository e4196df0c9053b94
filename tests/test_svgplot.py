"""SVG chart emitter: structure, determinism, error handling."""

import html
import string
import xml.dom.minidom
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from lightup.svgplot import Chart, Series, escape, render_chart, render_panels

NS = {"s": "http://www.w3.org/2000/svg"}


def chart_with(n_series=3, n_points=5):
    chart = Chart(title="demo", x_label="x", y_label="y")
    for i in range(n_series):
        xs = list(range(n_points))
        ys = [0.1 * i + 0.05 * j for j in range(n_points)]
        chart.series.append(Series(name=f"s{i}", xs=xs, ys=ys,
                                   band_low=[y - 0.02 for y in ys], band_high=[y + 0.02 for y in ys]))
    return chart


def test_render_panels_is_valid_xml_with_expected_elements():
    svg = render_panels([chart_with()], columns=1)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(root.findall(".//s:polyline", NS)) == 3
    assert len(root.findall(".//s:polygon", NS)) == 3
    texts = [t.text for t in root.findall(".//s:text", NS)]
    assert "demo" in texts and "s0" in texts and "s2" in texts


def test_render_is_deterministic():
    charts = [chart_with(), chart_with(n_series=1)]
    assert render_panels(charts, columns=2) == render_panels(charts, columns=2)


def test_grid_layout_dimensions():
    svg = render_panels([chart_with()] * 4, columns=2)
    root = ET.fromstring(svg)
    assert root.get("width") == "1040"
    assert root.get("height") == "680"


def test_empty_series_rejected_before_any_output():
    with pytest.raises(ValueError, match="empty series"):
        render_chart(Chart(title="bad", x_label="x", y_label="y",
                           series=[Series(name="none", xs=[], ys=[], band_low=[], band_high=[])]), 0, 0)
    with pytest.raises(ValueError, match="no charts"):
        render_panels([], columns=1)


def test_flat_data_does_not_break_scaling():
    # The waste curve of a run that wastes nothing: every value is 0, the
    # axis's start, so the y range is empty until the chart widens it.
    zeros = [0.0, 0.0, 0.0]
    chart = Chart(title="flat", x_label="x", y_label="y",
                  series=[Series(name="c", xs=[0, 1, 2], ys=zeros, band_low=zeros, band_high=zeros)])
    svg = render_panels([chart], columns=1)
    ET.fromstring(svg)  # well-formed, no division blowups


def test_fixed_y_range_is_respected():
    chart = chart_with()
    chart.y_max = 1.0
    svg = render_panels([chart], columns=1)
    root = ET.fromstring(svg)
    labels = [t.text for t in root.findall(".//s:text", NS)]
    assert "0" in labels and "1" in labels


def test_markup_characters_in_labels_are_escaped():
    # Titles come from run directory names and series names from goal labels,
    # both user input, so each is written as text, not markup.
    names = ("a&b", "c<d", "e>f", "\"g'")
    chart = Chart(title="runs <a&b>", x_label="x & t", y_label="y < 1",
                  series=[Series(name=name, xs=[0, 1], ys=[0.1, 0.2], band_low=[0.0, 0.1], band_high=[0.2, 0.3])
                          for name in names])
    dom = xml.dom.minidom.parseString(render_panels([chart], columns=1))
    texts = [node.firstChild.data for node in dom.getElementsByTagName("text")]
    assert {"runs <a&b>", "x & t", "y < 1", *names} <= set(texts)


# Markup characters and ASCII letters, and any other character from U+0080 up.
LABEL_TEXT = st.text(st.sampled_from("&<>\"'" + string.ascii_letters) | st.characters(min_codepoint=0x80))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(LABEL_TEXT)
def test_escape_is_html_escape(text):
    # svgplot escapes without importing html (about 0.25 MB a run need not load).
    assert escape(text) == html.escape(text)
