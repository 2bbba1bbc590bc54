"""Exit codes, text reports, and JSON round-tripping of the CLI."""

import json
import subprocess
import sys

import pytest

import matroidfacets.catalog as catalog_mod
import matroidfacets.core as core_mod
import matroidfacets.files as files_mod
from matroidfacets import Matroid, MatroidFile, catalog_get, cli, direct_sum, dumps, save, uniform
from matroidfacets.cli import main


@pytest.fixture()
def mk4_file(tmp_path):
    path = tmp_path / "mk4.txt"
    save(path, catalog_get("MK4").matroid, "MK4")
    return str(path)


@pytest.fixture()
def u24_file(tmp_path):
    path = tmp_path / "u24.txt"
    save(path, catalog_get("U_2_4").matroid, "U_2_4")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    # canonical form: re-serializing changes nothing
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
    assert "timing" in doc and doc["timing"]["seconds"] >= 0
    return code, doc


# Each subcommand's argv, its expected ``inputs`` and exit code, given the
# MK4 file and an output path.
ENVELOPES = {
    "info": lambda f, out: (["info", f], {"file": f}, 0),
    "locked": lambda f, out: (["locked", f], {"file": f, "k": None}, 0),
    "facets": lambda f, out: (
        ["facets", f, "--polytope", "independence"],
        {"file": f, "polytope": "independence"},
        0,
    ),
    "certify": lambda f, out: (["certify", f], {"file": f}, 0),
    "mwbp": lambda f, out: (
        ["mwbp", f, "--weights=1/2,0.5,-1,2/4,0,3.0"],
        {"file": f, "weights": ["1/2", "1/2", "-1", "1/2", "0", "3"]},
        0,
    ),
    "uniform": lambda f, out: (["uniform", f], {"file": f}, 1),
    "two-sum": lambda f, out: (
        ["two-sum", f, f, "--base", "cd,ab", "-o", out],
        {"file1": f, "file2": f, "base": ["cd", "ab"], "output": out},
        0,
    ),
    "catalog": lambda f, out: (["catalog", "MK4"], {"name": "MK4", "output": None}, 0),
}


# The other inputs a golden case may name, each written to a file of
# its own by the test: its name in the file and its matroid.
OTHER_INPUTS = {
    "{u12}": ("U_1_2", uniform(1, 2)),
    "{u13}": ("U_1_3", uniform(1, 3)),
    "{u12+u12}": ("U12+U12", direct_sum(uniform(1, 2), uniform(1, 2))),
}

# The full text report of every subcommand on MK4, byte for byte: ``{f}``
# is the MK4 file and ``{out}`` the output path.  The last cases reach
# the ``note:`` and ``collapsed:`` lines, which MK4 prints none of.
GOLDEN = [
    (
        ["info", "{f}"],
        """\
name: MK4
elements: ab ac ad bc bd cd
size: 6
rank: 3
bases: 16
loops: -
coloops: -
connected: yes
3-connected: yes
components: {ab ac ad bc bd cd}
""",
        0,
    ),
    (
        ["locked", "{f}"],
        """\
name: MK4
parallel closures: {ab} {ac} {ad} {bc} {bd} {cd}
coparallel closures: {ab} {ac} {ad} {bc} {bd} {cd}
locked count: 4
locked: {ab ac bc} rank 2
locked: {ab ad bd} rank 2
locked: {ac ad cd} rank 2
locked: {bc bd cd} rank 2
""",
        0,
    ),
    (
        ["locked", "{f}", "--k", "0"],
        """\
name: MK4
k: 0
threshold: 1
verdict: No (more than 1 locked subsets)
""",
        1,
    ),
    (
        ["locked", "{f}", "--k", "1"],
        """\
name: MK4
k: 1
threshold: 6
verdict: structure
parallel closures: {ab} {ac} {ad} {bc} {bd} {cd}
coparallel closures: {ab} {ac} {ad} {bc} {bd} {cd}
locked count: 4
locked: {ab ac bc} rank 2
locked: {ab ad bd} rank 2
locked: {ac ad cd} rank 2
locked: {bc bd cd} rank 2
""",
        0,
    ),
    (
        ["facets", "{f}"],
        """\
name: MK4
polytope: bases
equality: x(ab ac ad bc bd cd) = 3 [rank-equality]
facets: 16
  x(ab) <= 1 [parallel-upper]
  x(ac) <= 1 [parallel-upper]
  x(ad) <= 1 [parallel-upper]
  x(bc) <= 1 [parallel-upper]
  x(bd) <= 1 [parallel-upper]
  x(cd) <= 1 [parallel-upper]
  x(ab) >= 0 [coparallel-lower]
  x(ac) >= 0 [coparallel-lower]
  x(ad) >= 0 [coparallel-lower]
  x(bc) >= 0 [coparallel-lower]
  x(bd) >= 0 [coparallel-lower]
  x(cd) >= 0 [coparallel-lower]
  x(ab ac bc) <= 2 [locked-upper]
  x(ab ad bd) <= 2 [locked-upper]
  x(ac ad cd) <= 2 [locked-upper]
  x(bc bd cd) <= 2 [locked-upper]
""",
        0,
    ),
    (
        ["facets", "{f}", "--polytope", "independence"],
        """\
name: MK4
polytope: independence
facets: 17
  x(ab) >= 0 [nonnegativity]
  x(ac) >= 0 [nonnegativity]
  x(ad) >= 0 [nonnegativity]
  x(bc) >= 0 [nonnegativity]
  x(bd) >= 0 [nonnegativity]
  x(cd) >= 0 [nonnegativity]
  x(ab) <= 1 [rank-upper]
  x(ac) <= 1 [rank-upper]
  x(ad) <= 1 [rank-upper]
  x(bc) <= 1 [rank-upper]
  x(bd) <= 1 [rank-upper]
  x(cd) <= 1 [rank-upper]
  x(ab ac bc) <= 2 [rank-upper]
  x(ab ad bd) <= 2 [rank-upper]
  x(ac ad cd) <= 2 [rank-upper]
  x(bc bd cd) <= 2 [rank-upper]
  x(ab ac ad bc bd cd) <= 3 [rank-upper]
""",
        0,
    ),
    (
        ["certify", "{f}"],
        """\
name: MK4
dimension: 5
predicted facets: 16
oracle facets: 16
matched: 16
missing: 0
extra: 0
result: PASS
""",
        0,
    ),
    (
        ["mwbp", "{f}", "--weights", "5,4,3,2,1,0"],
        """\
name: MK4
basis: {ab ac ad}
value: 12
  accept ab (weight 5)
  accept ac (weight 4)
  accept ad (weight 3)
  reject bc (weight 2)
  reject bd (weight 1)
  reject cd (weight 0)
""",
        0,
    ),
    (
        ["uniform", "{f}"],
        """\
name: MK4
uniform: no
witness condition: none
locked numbers: ell=4 rank=3 parallel=6 coparallel=6
""",
        1,
    ),
    (
        ["two-sum", "{f}", "{f}", "--base", "cd,ab", "-o", "{out}"],
        """\
name: MK4+MK4
elements: L.ab L.ac L.ad L.bc L.bd R.ac R.ad R.bc R.bd R.cd
rank: 5
bases: 128
wrote: {out}
""",
        0,
    ),
    (
        ["catalog", "W3"],
        """\
name: W3
rank: 3
bases: 17
expected locked number: 3
name W3
elements ab ac ad bc bd cd
rank 3
nonbases:
ab ad bd
ac ad cd
bc bd cd
""",
        0,
    ),
    (
        ["certify", "{u12}"],
        """\
name: U_1_2
dimension: 1
predicted facets: 0
oracle facets: 2
matched: 0
missing: 2
extra: 0
note: degenerate collapse: x(1 2) <= 1 [parallel-upper] coincides with the rank equality
note: degenerate collapse: x(1 2) >= 1 [coparallel-lower] coincides with the rank equality
note: 2 oracle facet(s) unmatched; attributed to the degenerate collapse
result: PASS
""",
        0,
    ),
    (
        ["facets", "{u13}"],
        """\
name: U_1_3
polytope: bases
equality: x(1 2 3) = 1 [rank-equality]
facets: 3
  x(1) >= 0 [coparallel-lower]
  x(2) >= 0 [coparallel-lower]
  x(3) >= 0 [coparallel-lower]
collapsed: x(1 2 3) <= 1 [parallel-upper]
""",
        0,
    ),
    (
        ["uniform", "{u12+u12}"],
        """\
name: U12+U12
uniform: no
witness condition: none
note: a disconnected matroid with 0 < r < n is not uniform
""",
        1,
    ),
]


@pytest.mark.parametrize("argv, want, want_code", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_text_report_is_golden(capsys, tmp_path, mk4_file, argv, want, want_code):
    out_path = str(tmp_path / "out.txt")
    fill = {"{f}": mk4_file, "{out}": out_path}
    for key, (name, matroid) in OTHER_INPUTS.items():
        if key in argv:
            fill[key] = str(tmp_path / f"{name}.txt")
            save(fill[key], matroid, name)
    code, out, err = run(capsys, *(fill.get(a, a) for a in argv))
    assert (code, out, err) == (want_code, want.replace("{out}", out_path), "")


def test_main_builds_no_parser(capsys, monkeypatch, mk4_file):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for argv in (["info", mk4_file], ["catalog", "U_1_2"], ["locked", mk4_file, "--json"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_argument_errors_come_before_any_load(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "mwbp", missing, "--weights", "a,b")
    assert code == 2 and out == ""
    assert "cannot parse weights 'a,b'" in err
    code, out, err = run(capsys, "two-sum", missing, missing, "--base", "cd")
    assert code == 2 and out == ""
    assert "p1,p2" in err


@pytest.mark.parametrize("command", ENVELOPES)
def test_json_envelope(capsys, tmp_path, mk4_file, command):
    argv, inputs, want_code = ENVELOPES[command](mk4_file, str(tmp_path / "out.txt"))
    code, doc = run_json(capsys, *argv)
    assert code == want_code
    assert set(doc) == {"command", "inputs", "results", "timing"}
    assert doc["command"] == command
    assert doc["inputs"] == inputs


def test_info(capsys, mk4_file):
    code, out, err = run(capsys, "info", mk4_file)
    assert code == 0
    assert "rank: 3" in out and "bases: 16" in out
    assert "3-connected: yes" in out


def test_info_json(capsys, mk4_file):
    code, doc = run_json(capsys, "info", mk4_file)
    assert code == 0
    assert doc["results"]["rank"] == 3
    assert doc["results"]["components"] == [["ab", "ac", "ad", "bc", "bd", "cd"]]


def test_locked_structure(capsys, mk4_file):
    code, out, err = run(capsys, "locked", mk4_file)
    assert code == 0
    assert "locked count: 4" in out
    assert "locked: {ab ac bc} rank 2" in out


def test_locked_oracle_verdicts(capsys, mk4_file):
    code, doc = run_json(capsys, "locked", mk4_file, "--k", "1")
    assert code == 0
    assert doc["results"]["verdict"] == "structure"
    assert doc["results"]["threshold"] == 6
    code, doc = run_json(capsys, "locked", mk4_file, "--k", "0")
    assert code == 1  # refusal is a negative verdict
    assert doc["results"]["verdict"] == "no"


def test_locked_oracle_takes_a_huge_k(capsys, mk4_file):
    for k in ("6000", "1000000000000"):
        code, doc = run_json(capsys, "locked", mk4_file, "--k", k)
        assert code == 0
        assert doc["results"]["verdict"] == "structure"
        assert doc["results"]["threshold"] == 6**6


def test_negative_k_is_an_input_error(capsys, mk4_file):
    code, out, err = run(capsys, "locked", mk4_file, "--k", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--k" in err


def test_facets_text_is_canonical(capsys, mk4_file):
    code, out, err = run(capsys, "facets", mk4_file)
    assert code == 0
    assert "equality: x(ab ac ad bc bd cd) = 3 [rank-equality]" in out
    assert "facets: 16" in out
    assert "  x(ab ac bc) <= 2 [locked-upper]" in out


def test_facets_independence(capsys, u24_file):
    code, doc = run_json(capsys, "facets", u24_file, "--polytope", "independence")
    assert code == 0
    assert doc["results"]["equality"] is None
    assert doc["results"]["facet_count"] == 9
    assert doc["results"]["by_origin"] == {"nonnegativity": 4, "rank-upper": 5}


def test_certify_pass(capsys, mk4_file):
    code, doc = run_json(capsys, "certify", mk4_file)
    assert code == 0
    assert doc["results"]["passed"] is True
    assert doc["results"]["oracle_count"] == 16
    code, out, _ = run(capsys, "certify", mk4_file)
    assert "result: PASS" in out


def test_mwbp(capsys, mk4_file):
    code, out, _ = run(capsys, "mwbp", mk4_file, "--weights", "5,4,3,2,1,0")
    assert code == 0
    assert "basis: {ab ac ad}" in out
    assert "value: 12" in out
    assert "reject bc" in out


def test_mwbp_fractional_weights(capsys, mk4_file):
    code, doc = run_json(capsys, "mwbp", mk4_file, "--weights", "1/2,1/3,0,-2,7,1")
    assert code == 0
    assert doc["results"]["basis"] == ["ab", "bd", "cd"]
    assert doc["results"]["value"] == "17/2"
    assert len(doc["results"]["trace"]) == 6


def test_mwbp_weight_errors(capsys, mk4_file):
    code, out, err = run(capsys, "mwbp", mk4_file, "--weights", "1,2")
    assert code == 2
    assert "error:" in err
    code, out, err = run(capsys, "mwbp", mk4_file, "--weights", "a,b,c,d,e,f")
    assert code == 2


def test_uniform_verdicts(capsys, mk4_file, u24_file):
    code, doc = run_json(capsys, "uniform", u24_file)
    assert code == 0
    assert doc["results"]["uniform"] is True
    assert doc["results"]["witness_condition"] == "i"
    code, doc = run_json(capsys, "uniform", mk4_file)
    assert code == 1
    assert doc["results"]["locked_numbers"]["ell"] == 4


def test_two_sum_writes_a_loadable_file(capsys, tmp_path):
    u23 = tmp_path / "u23.txt"
    save(u23, catalog_get("U_2_3").matroid, "U_2_3")
    out_path = tmp_path / "glued.txt"
    code, doc = run_json(
        capsys, "two-sum", str(u23), str(u23), "--base", "3,1", "-o", str(out_path)
    )
    assert code == 0
    assert doc["results"]["rank"] == 3
    assert doc["results"]["bases"] == 4
    code, doc = run_json(capsys, "info", str(out_path))
    assert code == 0
    assert doc["results"]["elements"] == ["L.1", "L.2", "R.2", "R.3"]


def test_two_sum_argument_errors(capsys, tmp_path, mk4_file):
    code, out, err = run(capsys, "two-sum", mk4_file, mk4_file, "--base", "cd")
    assert code == 2 and "p1,p2" in err
    code, out, err = run(capsys, "two-sum", mk4_file, mk4_file, "--base", "zz,cd")
    assert code == 2


def test_catalog_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "W3")
    assert code == 0
    assert "name W3" in out and "expected locked number: 3" in out
    path = tmp_path / "v8.txt"
    code, doc = run_json(capsys, "catalog", "V8", "-o", str(path))
    assert code == 0
    assert doc["results"]["bases"] == 65
    assert path.exists()


def test_catalog_unknown_name(capsys):
    code, out, err = run(capsys, "catalog", "NOPE")
    assert code == 2
    assert "unknown catalog name" in err


def test_uniform_catalog_writes_what_the_built_matroid_encodes(capsys, tmp_path):
    # catalog writes U_r_n from its listing, without building the bases
    path = tmp_path / "u.txt"
    for n in range(1, 7):
        for r in range(n + 1):
            name = f"U_{r}_{n}"
            m = uniform(r, n)
            text = dumps(MatroidFile.from_matroid(m, name))
            code, out, _ = run(capsys, "catalog", name)
            assert code == 0 and out.endswith("\n" + text), name
            code, doc = run_json(capsys, "catalog", name, "-o", str(path))
            assert code == 0 and path.read_text() == text, name
            assert doc["results"] == {
                "name": name,
                "elements": list(m.ground.labels),
                "rank": r,
                "bases": m.basis_count(),
                "expected_locked_number": 0,
            }


def test_uniform_catalog_write_builds_no_basis(capsys, monkeypatch, tmp_path):
    # U_12_24 has 2 704 156 bases; writing its file lists none of them
    def refuse(*args):
        raise AssertionError("no basis family may be built")

    for module in (core_mod, catalog_mod, files_mod):
        monkeypatch.setattr(module, "r_subsets", refuse)
    monkeypatch.setattr(Matroid, "_fill", refuse)
    path = tmp_path / "u_12_24.txt"
    code, doc = run_json(capsys, "catalog", "U_12_24", "-o", str(path))
    assert code == 0 and doc["results"]["bases"] == 2704156
    labels = " ".join(map(str, range(1, 25)))
    assert path.read_text() == f"name U_12_24\nelements {labels}\nrank 12\nnonbases:\n"


def test_catalog_refuses_a_count_too_long_to_print_before_writing(capsys, tmp_path):
    path = tmp_path / "u.txt"
    for mode in ([], ["--json"]):
        code, out, err = run(capsys, "catalog", "U_8000_16000", "-o", str(path), *mode)
        assert (code, out) == (2, "") and not path.exists(), mode
        assert err.startswith("error: U_8000_16000 has a basis count of more than "), mode
        assert len(err.splitlines()) == 1, mode


@pytest.mark.parametrize("r, n", [(1, 30), (29, 30)])
def test_info_past_the_scan_cap_at_rank_or_corank_one(capsys, monkeypatch, tmp_path, r, n):
    # rank or corank 1 on 30 elements: not 3-connected, and no scan is built
    path = str(tmp_path / "u.txt")
    assert run(capsys, "catalog", f"U_{r}_{n}", "-o", path)[0] == 0

    def refuse(*args):
        raise AssertionError("no 2^n scan may be built")

    monkeypatch.setattr(core_mod, "_subset_bits", refuse)
    code, out, err = run(capsys, "info", path)
    assert (code, err) == (0, "")
    assert "connected: yes\n3-connected: no\n" in out


@pytest.mark.parametrize("r, n", [(9, 4), (0, 0)])
def test_catalog_refuses_a_uniform_name_with_no_matroid(capsys, r, n):
    code, out, err = run(capsys, "catalog", f"U_{r}_{n}")
    assert (code, out) == (2, "")
    assert err == f"error: uniform needs 0 <= r <= n and n >= 1, got r={r} n={n}\n"


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "info", "does-not-exist.txt")
    assert code == 2
    assert "error:" in err


def test_corrupted_file_is_an_input_error(capsys, tmp_path):
    m = catalog_get("MK4").matroid
    kept = [b.labels() for b in m.bases if b.labels() != ("ab", "ac", "ad")]
    text = "name broken\nelements ab ac ad bc bd cd\nrank 3\nbases:\n"
    text += "".join(" ".join(b) + "\n" for b in kept)
    path = tmp_path / "broken.txt"
    path.write_text(text)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2
    assert "exchange" in err
    # certify never runs on a family that fails validation: same exit 2,
    # distinct from the exit-1 certification mismatch
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "exchange" in err and "result:" not in out


def test_mwbp_zero_weights(capsys, mk4_file):
    code, doc = run_json(capsys, "mwbp", mk4_file, "--weights", "0,0,0,0,0,0")
    assert code == 0
    assert doc["results"]["value"] == "0"
    assert len(doc["results"]["basis"]) == 3


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "matroidfacets.cli", "catalog", "U_1_2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "name U_1_2" in proc.stdout


# Small and degenerate inputs: rank 0 or full rank, a loop, a coloop,
# and a disconnected sum.  ``catalog`` knows the uniform names only.
DEGENERATE = {
    **{f"U_{r}_{n}": uniform(r, n) for r, n in ((0, 2), (2, 2), (1, 2), (0, 3), (3, 3), (2, 3))},
    "U_0_1+U_2_3": direct_sum(uniform(0, 1), uniform(2, 3)),
    "U_1_1+U_2_3": direct_sum(uniform(1, 1), uniform(2, 3)),
    "U_2_4+U_2_4": direct_sum(uniform(2, 4), uniform(2, 4)),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_inputs_get_a_report_or_one_error_line(capsys, tmp_path, name):
    matroid = DEGENERATE[name]
    path = str(tmp_path / "m.txt")
    save(path, matroid, name)
    first = matroid.ground.labels[0]
    weights = ",".join(str(i) for i in range(len(matroid.ground)))
    for argv in (
        ["info", path],
        ["locked", path],
        ["locked", path, "--k", "1"],
        ["facets", path],
        ["facets", path, "--polytope", "independence"],
        ["certify", path],
        ["mwbp", path, "--weights", weights],
        ["uniform", path],
        ["two-sum", path, path, "--base", f"{first},{first}"],
        ["catalog", name],
    ):
        for mode in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *mode)
            assert code in (0, 1, 2), (argv, mode)
            if code == 2:
                assert out == "" and err.startswith("error: "), (argv, mode)
                assert len(err.splitlines()) == 1, (argv, mode)
            elif mode:
                assert json.loads(out)["command"] == argv[0] and err == "", argv
            else:
                assert out.startswith("name: ") and err == "", argv
