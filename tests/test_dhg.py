"""Text format round-trips and error reporting."""

import pytest

from hypershuffle import (
    DhgParseError,
    canonical_form,
    canonicalize,
    degree_sequence,
    parse_dhg,
    serialize_dhg,
    split_dhg_stream,
)
from conftest import WORKED_EXAMPLE


def test_parse_degenerate_arc():
    H = parse_dhg("vertices u v x\narc u u -> x\n")
    assert H.n_vertices == 3
    assert H.arcs == (((0, 0), (2,)),)
    assert H.labels == ("u", "v", "x")


def test_comments_and_blank_lines():
    text = "# a comment\nvertices u v\n\narc u -> v  # trailing\n"
    H = parse_dhg(text)
    assert H.arcs == (((0,), (1,)),)


def test_serialize_parse_fixed_point():
    text = serialize_dhg(WORKED_EXAMPLE)
    H = parse_dhg(text)
    assert canonical_form(H) == canonical_form(WORKED_EXAMPLE)
    assert serialize_dhg(H) == text  # bit-exact on canonical forms


def test_worked_example_serializes_five_arc_lines():
    text = serialize_dhg(WORKED_EXAMPLE)
    arc_lines = [line for line in text.splitlines() if line.startswith("arc ")]
    assert len(arc_lines) == 5
    d = degree_sequence(parse_dhg(text))
    assert d.vertex_degrees == ((1, 1), (1, 2), (3, 1), (0, 3), (1, 0), (1, 1))
    assert sorted(d.arc_degrees) == sorted(((2, 2), (2, 1), (1, 1), (1, 1), (2, 2)))


def test_token_order_is_canonicalized():
    a = parse_dhg("vertices u v x\narc v u -> x x\n")
    b = parse_dhg("vertices u v x\narc u v -> x x\n")
    assert serialize_dhg(a) == serialize_dhg(b)


def test_unknown_vertex_has_position():
    with pytest.raises(DhgParseError) as err:
        parse_dhg("vertices u v\narc u -> w\n")
    assert "unknown vertex" in str(err.value)
    assert err.value.line == 2
    assert err.value.column is not None


def test_unknown_vertex_column_points_at_the_token():
    # 'r' also occurs inside the keyword 'arc'; the column must be the
    # token's own offset, not the first substring match.
    with pytest.raises(DhgParseError) as err:
        parse_dhg("vertices a b\narc a -> r\n")
    assert err.value.line == 2
    assert err.value.column == 10
    assert str(err.value) == "unknown vertex 'r' (line 2, column 10)"


def test_unknown_vertex_column_counts_leading_whitespace():
    with pytest.raises(DhgParseError) as err:
        parse_dhg("vertices a b\n  arc a a -> b a  ab # ab\n")
    assert err.value.column == 19


def test_empty_head_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("vertices u v\narc u ->\n")


def test_missing_arrow_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("vertices u v\narc u v\n")


def test_double_arrow_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("vertices u v\narc u -> v -> u\n")


def test_duplicate_vertex_name_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("vertices u u\n")


def test_vertices_after_arcs_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("vertices u v\narc u -> v\nvertices w\n")


def test_unknown_statement_is_an_error():
    with pytest.raises(DhgParseError):
        parse_dhg("hyperarc u -> v\n")


def test_split_stream_roundtrip():
    doc = serialize_dhg(canonicalize(WORKED_EXAMPLE))
    stream = "# sample 0\n" + doc + "\n# sample 1\n" + doc
    parts = split_dhg_stream(stream)
    assert len(parts) == 2
    for part in parts:
        assert canonical_form(parse_dhg(part)) == canonical_form(WORKED_EXAMPLE)
