"""The flat matroid file format: parsing, writing, validation on load."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _naive as naive
from _draws import matroids
from conftest import build_uniformity_pool
from matroidfacets import (
    ExchangeAxiomViolated,
    ForeignElement,
    GroundSet,
    Matroid,
    MatroidError,
    MatroidFile,
    ParseError,
    catalog_get,
    catalog_names,
    direct_sum,
    dumps,
    load,
    loads,
    save,
    uniform,
)
from matroidfacets.cli import main

MK4_NONBASES_TEXT = """\
name MK4
elements ab ac ad bc bd cd
rank 3
nonbases:
ab ac bc
ab ad bd
ac ad cd
bc bd cd
"""


def test_round_trip_through_text():
    m = catalog_get("MK4").matroid
    text = dumps(MatroidFile.from_matroid(m, "MK4"))
    assert text == MK4_NONBASES_TEXT
    loaded, mf = loads(text).to_matroid(), loads(text)
    assert loaded == m
    assert mf.name == "MK4"


def test_auto_encoding_picks_the_shorter_listing():
    mk4 = catalog_get("MK4").matroid
    assert MatroidFile.from_matroid(mk4, "MK4").nonbases is not None  # 4 < 16
    u11 = uniform(1, 1)
    tiny = MatroidFile.from_matroid(u11, "tiny")
    assert tiny.nonbases == ()  # zero lines beat one line
    assert loads(dumps(tiny)).to_matroid() == u11

    forced = MatroidFile.from_matroid(mk4, "MK4", encoding="bases")
    assert forced.bases is not None and len(forced.bases) == 16
    assert loads(dumps(forced)).to_matroid() == mk4


def test_empty_nonbases_section_means_uniform():
    text = "name U\nelements a b c\nrank 2\nnonbases:\n"
    m = loads(text).to_matroid()
    assert m.basis_count() == 3


def test_round_trip_all_catalog(tmp_path):
    for name in ("MK4", "W3", "Q6", "P6", "V8"):
        m = catalog_get(name).matroid
        path = tmp_path / f"{name}.txt"
        save(path, m, name)
        loaded, mf = load(path)
        assert loaded == m
        assert mf.name == name


def _encoder_pool():
    pool = [(name, catalog_get(name).matroid) for name in catalog_names()]
    pool += [(f"U_{r}_{n}", uniform(r, n)) for n in range(1, 7) for r in range(n + 1)]
    pool.append(("U12+U23", direct_sum(uniform(1, 2), uniform(2, 3))))
    pool.append(("U01+U22", direct_sum(uniform(0, 1), uniform(2, 2))))
    pool.append(("MK4+U13", direct_sum(catalog_get("MK4").matroid, uniform(1, 3))))
    return pool


@pytest.mark.parametrize("encoding", ["auto", "bases", "nonbases"])
def test_writer_matches_a_naive_encoder(encoding):
    for name, m in _encoder_pool():
        bases = [frozenset(b.labels()) for b in m.bases]
        expected = naive.file_text(name, m.ground.labels, m.rank_value, bases, encoding)
        text = dumps(MatroidFile.from_matroid(m, name, encoding))
        assert text == expected, name
        assert loads(text).to_matroid() == m, name


def test_comments_and_blank_lines_ignored():
    text = (
        "# a comment\n\nname X\n"
        "elements a b\n# another\nrank 1\nbases:\na\n\nb\n"
    )
    m = loads(text).to_matroid()
    assert m.basis_count() == 2


@pytest.mark.parametrize(
    "text, hint",
    [
        ("elements a b\nrank 1\nbases:\na\n", "name"),
        ("name X\nrank 1\nbases:\na\n", "elements"),
        ("name X\nelements a b\nbases:\na\n", "rank"),
        ("name X\nelements a a\nrank 1\nbases:\na\n", "duplicate"),
        ("name X\nelements a b\nrank 1\n", "section"),
        ("name X\nelements a b\nrank 1\nbases:\n", "at least one basis"),
        ("name X\nelements a b\nrank 1\nbases:\nz\n", "z"),
        ("name X\nelements a b\nrank 2\nbases:\na\n", "rank"),
        ("name X\nelements a b\nrank 1\nnonbases:\na b\n", "cardinality"),
        ("name X\nelements a b\nrank 1\nwhat:\na\n", "header"),
        ("bogus line\n", "header"),
        # a repeated header is refused, not read as the last one given
        ("name X\nelements a b c\nrank 1\nrank 2\nnonbases:\n", "line 4: repeated header 'rank'"),
        ("name X\nelements a b\nelements a b c\nrank 2\nnonbases:\n", "line 3: repeated header"),
        # only ASCII decimal digits read as a rank, not all that int() reads
        ("name X\nelements a b\nrank 1_0\nbases:\na\n", "line 3: rank must be an integer"),
        ("name X\nelements a b\nrank +1\nbases:\na\n", "line 3: rank must be an integer"),
        ("name X\nelements a b\nrank \u0661\nbases:\na\n", "line 3: rank must be an integer"),
    ],
)
def test_malformed_inputs_rejected(text, hint):
    with pytest.raises(ParseError) as info:
        loads(text).to_matroid()
    assert hint.lower() in str(info.value).lower()


@pytest.mark.parametrize("section", ["bases", "nonbases"])
def test_unknown_label_named_where_it_sits_in_its_row(section):
    text = f"name X\nelements a b c\nrank 2\n{section}:\na b\nb zz c\n"
    with pytest.raises(ParseError) as info:
        loads(text)
    assert str(info.value) == f"unknown element 'zz' in {section} section"


def test_corrupted_family_caught_on_conversion():
    # removing the star at vertex a from MK4's bases breaks exchange
    m = catalog_get("MK4").matroid
    kept = [b.labels() for b in m.bases if b.labels() != ("ab", "ac", "ad")]
    text = "name broken\nelements ab ac ad bc bd cd\nrank 3\nbases:\n"
    text += "".join(" ".join(b) + "\n" for b in kept)
    mf = loads(text)
    with pytest.raises(ExchangeAxiomViolated):
        mf.to_matroid()


def test_load_validates_by_default(tmp_path):
    path = tmp_path / "broken.txt"
    m = catalog_get("MK4").matroid
    kept = [b.labels() for b in m.bases if b.labels() != ("ab", "ac", "ad")]
    text = "name broken\nelements ab ac ad bc bd cd\nrank 3\nbases:\n"
    text += "".join(" ".join(b) + "\n" for b in kept)
    path.write_text(text)
    with pytest.raises(ExchangeAxiomViolated):
        load(path)


def test_a_hand_built_mask_with_a_foreign_bit_is_refused():
    # loads() checks labels itself; a MatroidFile built directly is given
    # masks, and a bit past the labels names no element, in either section
    for section in ("bases", "nonbases"):
        with pytest.raises(ForeignElement):
            MatroidFile("X", ("1", "2", "3"), 2, section, (0b011, 0b1001))


def test_hand_built_nonbases_are_sized_by_popcount():
    def built(*nonbases):
        return MatroidFile("X", ("1", "2", "3"), 2, "nonbases", nonbases).to_matroid()

    with pytest.raises(ParseError, match="cardinality"):
        built(0b111)
    assert built(0b011).basis_count() == 2


def test_a_hand_built_file_lists_exactly_one_section():
    for section in (None, "both", "bases:"):
        with pytest.raises(ValueError, match="section"):
            MatroidFile("X", ("a",), 1, section, (0b1,))


def test_basis_count_counts_a_repeated_row_once():
    # to_matroid reads each row as a set and keeps it once, in either section
    nonbases = loads("name X\nelements a b c d\nrank 2\nnonbases:\na b\na b\n")
    bases = loads("name X\nelements a b c d\nrank 2\nbases:\na b\nb a\na c\n")
    for listing, count in ((nonbases, 5), (bases, 2)):
        assert listing.basis_count() == listing.to_matroid().basis_count() == count


def test_labels_starting_with_a_hash_are_refused(tmp_path, capsys):
    # a row starting with such a label reads as a comment: U_2_4 on #a b c
    # d would load back with three bases, exchange intact, and #a a loop
    ground = GroundSet(["#a", "b", "c", "d"])
    m = Matroid(ground, [ground.subset(pair) for pair in combinations(ground, 2)])
    with pytest.raises(ValueError, match="#"):
        save(tmp_path / "u24.txt", m, "U_2_4", encoding="bases")
    rows = "".join(f"{x} {y}\n" for x, y in combinations(ground, 2))
    text = "name U_2_4\nelements #a b c d\nrank 2\nbases:\n" + rows
    with pytest.raises(ParseError, match="line 2: .*'#'"):
        loads(text)
    path = tmp_path / "hashed.txt"
    path.write_text(text)
    assert main(["info", str(path)]) == 2
    assert "'#'" in capsys.readouterr().err


@pytest.mark.parametrize("section, rows", [("bases", "a b\n"), ("nonbases", "")])
def test_a_rank_above_the_element_count_is_refused_at_the_section(section, rows):
    text = f"name X\nelements a b\nrank 3\n{section}:\n{rows}"
    with pytest.raises(ParseError) as info:
        loads(text)
    assert str(info.value) == "rank 3 exceeds the 2 elements"


_CORRUPTIONS = (None, "unknown", "repeat", "size", "row", "comment", "blank", "crlf")


@st.composite
def _listings(draw):
    """A pool or drawn matroid's file in either encoding, with at most
    one corruption, and the matroid."""
    pool = st.sampled_from(_encoder_pool() + build_uniformity_pool())
    name, m = draw(pool | matroids(9).map(lambda m: ("drawn", m)))
    encoding = draw(st.sampled_from(["bases", "nonbases"]))
    labels, r = m.ground.labels, m.rank_value
    bases = [frozenset(b.labels()) for b in m.bases]
    lines = naive.file_text(name, labels, r, bases, encoding).splitlines()
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    rows = len(lines) - 4
    at = draw(st.integers(4, len(lines)))  # where a row goes in, or which row
    assert "zz" not in labels
    if corruption in ("unknown", "repeat"):
        row = lines[at].split() if at < len(lines) else []
        if corruption == "unknown" or row:
            extra = "zz" if corruption == "unknown" else draw(st.sampled_from(row))
            row.insert(draw(st.integers(0, len(row))), extra)
        else:
            row = [labels[0]] * 2
        lines[at:at + 1] = [" ".join(row)]
    elif corruption == "size":
        sizes = [k for k in range(1, len(labels) + 1) if k != r]
        if encoding == "nonbases" and sizes:
            size = draw(st.sampled_from(sizes))
            lines.insert(at, " ".join(draw(st.permutations(labels))[:size]))
    elif corruption == "row" and rows:
        lines.insert(at, lines[draw(st.integers(4, len(lines) - 1))])
    elif corruption in ("comment", "blank"):
        extra = "# a comment" if corruption == "comment" else draw(st.sampled_from(["", "  ", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = "\r\n" if corruption == "crlf" else "\n"
    return ending.join(lines) + ending, m


@settings(max_examples=300)
@given(_listings())
def test_reader_matches_a_naive_reader(drawn):
    text, m = drawn
    try:
        want = naive.read_file(text)
    except naive.Refused as refused:
        with pytest.raises(MatroidError) as info:
            loads(text).to_matroid()
        assert (type(info.value).__name__, str(info.value)) == (refused.kind, refused.message)
        return
    listing = loads(text)
    got = listing.to_matroid()
    assert frozenset(frozenset(b.labels()) for b in got.bases) == want
    assert listing.basis_count() == got.basis_count() == len(want)
    assert got == m
    assert loads(dumps(listing)) == listing
    listed = listing.bases if listing.section == "bases" else listing.nonbases
    *_, rows = naive.listed_rows(text)
    assert [set(row) for row in listed] == [set(row) for row in rows]


def test_a_loaded_row_reads_back_in_ground_order():
    listing = loads("name X\nelements a b\nrank 2\nbases:\nb a\n")
    assert listing.bases == (("a", "b"),)
    assert dumps(listing).splitlines()[-1] == "a b"
