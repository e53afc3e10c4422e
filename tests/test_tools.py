"""The repository's tools: tools/code_lines.py counts code-only lines, and
tools/finder_sweep.py records the eigenvalue finder's work over a scheme set."""

from __future__ import annotations

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
finder_sweep = _load("finder_sweep")

FIXTURE = '''"""Module docstring."""
import os


def g(): """A docstring on the line of its def."""


class C:
    """A class docstring,
    over two lines."""

    x = """a string that is
    not a docstring"""  # a trailing comment
    # a comment line
    y = os.sep
'''


def test_code_lines_counts_code_beside_a_docstring(tmp_path):
    # import, def g, class C, the two lines of x, y: the def line counts
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == 6


def test_finder_sweep_records_and_compares(tmp_path, capsys):
    # two presets: sec6 has the one eigenvalue 1, alternating the twelve
    # +-2/((2k+1) pi) above 0.05; both lists are certified down to 0.05
    out = tmp_path / "sweep.json"
    assert finder_sweep.main(["run", str(out), "--only", "sec6", "alternating"]) == 0
    records = json.loads(out.read_text())
    assert list(records) == ["sec6", "alternating"]
    sec6, alternating = records["sec6"], records["alternating"]
    assert [complex(*v) for v in sec6["eigenvalues"]] == [pytest.approx(1, abs=1e-12)]
    assert len(alternating["eigenvalues"]) == 12
    assert alternating["eigenvalues"][0] == [pytest.approx(2 / math.pi, rel=1e-12), 0]
    for record in (sec6, alternating):
        assert record["bound"] == record["r_min"] == 0.05 and record["warnings"] == []
        assert record["circles"] >= 1 and record["evaluations"] > 16 * record["circles"]
        # every circle settles, and Newton's evaluations are part of the total
        assert record["unsettled"] == 0
        assert sum(record["settled"].values()) == record["circles"]
        assert 0 < record["newton"] < record["evaluations"]
    settled = Counter(sec6["settled"]) + Counter(alternating["settled"])
    histogram = ", ".join(f"{n}: {settled[n]}" for n in sorted(settled, key=int))
    line = f"settled at points: {histogram}; never settled: 0 evaluations"
    assert line in capsys.readouterr().out
    assert finder_sweep.main(["compare", str(out), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "changed lists: none" in printed
    for label in ("old", "new"):
        assert line.replace("points:", f"points ({label}):") in printed
    newton = sec6["newton"] + alternating["newton"]
    assert f"total newton: {newton} -> {newton}" in printed
    assert "total unsettled: 0 -> 0" in printed
    # a record written before the three were kept still compares
    for record in records.values():
        del record["unsettled"], record["newton"], record["settled"]
    older = tmp_path / "older.json"
    older.write_text(json.dumps(records))
    assert finder_sweep.main(["compare", str(older), str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"total newton: - -> {newton}" in printed and "total unsettled: - -> 0" in printed
    assert "settled at points (old): -" in printed
    records = json.loads(out.read_text())
    sec6 = records["sec6"]
    sec6["bound"], sec6["eigenvalues"] = 0.06, []
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(records))
    assert finder_sweep.main(["compare", str(out), str(worse)]) == 1
    printed = capsys.readouterr().out
    assert "changed lists: sec6" in printed and "worse bounds: sec6" in printed
    # the values of a changed list found in only one of the two
    assert "  sec6 only in old: 1+0j\n  sec6 only in new: none\n" in printed
    # the same count, but one value gone and a duplicate of another in its
    # place: every new value is near an old one, yet the list changed
    records = json.loads(out.read_text())
    gone = complex(*records["alternating"]["eigenvalues"][1])
    records["alternating"]["eigenvalues"][1] = records["alternating"]["eigenvalues"][0]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(records))
    assert finder_sweep.main(["compare", str(out), str(swapped)]) == 0
    printed = capsys.readouterr().out
    assert "changed lists: alternating" in printed
    assert f"  alternating only in old: {gone:.9g}\n" in printed
    assert "  alternating only in new: none\n" in printed


def test_finder_sweep_counts_in_plain_ints():
    # the counting subclass of spectral._Circle passes on the points a
    # circle may take, and a numpy radius leaves every count a plain int,
    # so the record dumps to JSON.  sec5-1: |z| = 5 settles at 128 points,
    # 65 evaluations on the upper half; |z| = 10 needs more than 64 (33)
    import descentsum.spectral as spectral
    from descentsum import build_transfer, preset_scheme

    pair = build_transfer(preset_scheme("sec5-1"))
    counts = {
        "evaluations": 0, "unsettled": 0, "newton": 0, "circles": 0, "settled": {}
    }
    with finder_sweep._counting(spectral, counts):
        assert spectral._Circle(pair, np.float64(5.0)).count == 6
        assert spectral._Circle(pair, np.float64(10.0), 64).count is None
    assert spectral._Circle.__name__ == "_Circle"  # restored
    assert json.loads(json.dumps(counts)) == {
        "evaluations": 98, "unsettled": 33, "newton": 0, "circles": 2,
        "settled": {"128": 1},
    }
    plain = [counts[key] for key in ("evaluations", "unsettled", "newton", "circles")]
    assert all(type(v) is int for v in plain + [counts["settled"]["128"]])


def test_finder_sweep_draws_the_ill_conditioned_fixture():
    # ill-conditioned-740 is the scheme of tests/schemes/ill-conditioned-4
    from descentsum import load_scheme

    table = finder_sweep.schemes()
    fixture = Path(__file__).parent / "schemes" / "ill-conditioned-4.scheme"
    assert table["ill-conditioned-740"] == (load_scheme(fixture.read_text()), 0.05)
    assert table["ill-conditioned-233"][0].m == 4
