"""Every CLI kind reproduces the committed golden outputs: byte for byte under the BLAS
that recorded them, and within ``CHECK_RTOL`` on the full engine's floats under another.

The cases and their outputs live in ``tests/golden``; see
``tests/golden/regenerate.py`` for how they run and how to regenerate them.
"""

import json

import pytest

from rondeau import serialize

import golden.regenerate as regenerate
from golden.regenerate import (CASES, CHECK_RTOL, EXPECTED, blas_info, changes,
                               check_failures, describe, float_drift, output_files,
                               recorded_blas, run_cases)


def golden_failures(expected: dict, actual: dict, exact: bool) -> list[str]:
    """The changed files of ``actual`` that fail, each with its verdict.

    With ``exact`` every changed file fails.  Otherwise a file of a full-engine case
    (``-full`` in its case name) fails only by `check_failures`, since another GEMM
    kernel sums in another order; every other case calls no BLAS and stays byte-exact.
    """
    def fails(name: str) -> bool:
        before, after = {name: expected[name]}, {name: actual[name]}
        return exact or "-full" not in name.split("/")[0] or bool(check_failures(before, after))

    # each failing file with its verdict: "floats only, max |delta| ..." or "content"
    return [f"{name}: {describe(expected[name], actual[name])}" for name in expected
            if actual[name] != expected[name] and fails(name)]


def test_cli_outputs_match_golden_files(tmp_path):
    run_cases(tmp_path)
    actual = output_files(tmp_path)
    expected = output_files(EXPECTED)
    assert sorted(actual) == sorted(expected)
    exact = blas_info() == recorded_blas()
    mode = ("byte-exact, under the recording BLAS" if exact else
            f"full-engine floats within {CHECK_RTOL:g} relative, under another BLAS")
    failures = golden_failures(expected, actual, exact)
    assert not failures, (f"outputs differ from tests/golden/expected ({mode}), recorded under "
                          f"BLAS {recorded_blas()} and run under {blas_info()}:\n"
                          + "\n".join(failures))


def test_golden_failures_forgive_only_full_engine_float_drift():
    expected = {"trace-full-o1/trace.csv": b"1,-1.5e-03\n", "trace-dephasing/trace.csv":
                b"1,-1.5e-03\n", "heating-full/fits.json": b'{"points_used": 3}\n'}
    drifted = {"trace-full-o1/trace.csv": b"1,-1.5000000000001e-03\n",
               "trace-dephasing/trace.csv": b"1,-1.5000000000001e-03\n",
               "heating-full/fits.json": b'{"points_used": 2}\n'}
    assert golden_failures(expected, expected, exact=True) == []
    assert [f.split(":")[0] for f in golden_failures(expected, drifted, exact=True)] == \
        list(expected)
    assert [f.split(":")[0] for f in golden_failures(expected, drifted, exact=False)] == \
        ["trace-dephasing/trace.csv", "heating-full/fits.json"]


def test_every_cli_kind_is_covered():
    commands = {argv[0] for argv in CASES.values()}
    assert commands == {"trace", "phase-diagram", "heating", "spectrum", "encode",
                        "decode", "capacity"}
    sweeps = {argv[argv.index("--sweep") + 1] for argv in CASES.values()
              if argv[0] == "heating"}
    assert sweeps == {"eps", "period", "highfreq"}


def test_regeneration_names_added_changed_and_removed_files():
    before = {"a/kept": b"1", "a/moved": b"1", "gone": b"1"}
    after = {"a/kept": b"1", "a/moved": b"2", "new": b"1"}
    assert changes(before, after) == {"added": ["new"], "changed": ["a/moved"],
                                      "removed": ["gone"]}


def test_regeneration_tells_float_drift_from_content_changes():
    before = b"slot,value\n1,0.25\n2,-1.5e-03\n"
    assert float_drift(before, before) == 0.0
    drift = float_drift(before, b"slot,value\n1,0.2500000000001\n2,-1.5e-03\n")
    assert drift == pytest.approx(1e-13, rel=1e-3)
    assert describe(before, b"slot,value\n1,0.25\n2,-1.6e-03\n") == \
        "floats only, max |delta| 0.0001"
    # an integer, a word or a line that moves is a content change
    for after in (b"slot,value\n1,0.25\n3,-1.5e-03\n", b"slot,val\n1,0.25\n2,-1.5e-03\n",
                  b"slot,value\n1,0.25\n", b"slot,value\n1,nan\n2,-1.5e-03\n"):
        assert float_drift(before, after) is None
        assert describe(before, after) == "content"
    # a file whose '#' lines alone moved is named so, and --check still fails it
    for after in (b"# seed=1\n" + before, b"# seed=2\n" + before):
        assert describe(b"# seed=1\n" + before, after) == "header lines only"
    assert describe(before, b"# seed=1\nslot,value\n1,0.25\n2,-1.6e-03\n") == "content"
    assert check_failures({"t.csv": before}, {"t.csv": b"# seed=1\n" + before}) == ["t.csv"]


def test_check_bounds_float_drift_relative_to_each_token():
    # a contrast of about 30 moving by 1.1e-11 is 3.7e-13 of itself
    before = {"contrast.json": b'{"3.1": 30.0}\n', "trace.csv": b"1,-1.5e-03\n"}
    drifted = {"contrast.json": b'{"3.1": 30.000000000011}\n', "trace.csv": b"1,-1.5e-03\n"}
    assert float_drift(before["contrast.json"], drifted["contrast.json"]) > 1e-12
    assert float_drift(before["contrast.json"], drifted["contrast.json"],
                       relative=True) == pytest.approx(1.1e-11 / 30.000000000011, rel=1e-3)
    assert check_failures(before, drifted) == []
    # 1e-13 absolute on a token of 1.5e-3 is 6.7e-11 of it
    small = dict(before, **{"trace.csv": b"1,-1.5000000001e-03\n"})
    assert check_failures(before, small) == ["trace.csv"]
    # 2e-12 of a token is beyond CHECK_RTOL
    twice = dict(before, **{"contrast.json": b'{"3.1": 30.00000000006}\n'})
    assert float_drift(before["contrast.json"], twice["contrast.json"],
                       relative=True) == pytest.approx(2e-12, rel=1e-3)
    assert check_failures(before, twice) == ["contrast.json"]
    # content changes, added and removed files always fail
    moved = {"contrast.json": b'{"3.2": 30.0}\n', "new.csv": b"1\n"}
    assert check_failures(before, moved) == ["contrast.json", "new.csv", "trace.csv"]


def test_check_writes_nothing_and_exits_1_on_a_failure(tmp_path, monkeypatch):
    expected = tmp_path / "expected"
    (expected / "case").mkdir(parents=True)
    (expected / "case" / "out.csv").write_text("1,30.0\n")
    written = {"value": "1,30.000000000011\n"}

    def fake_run(root):
        (root / "case").mkdir()
        (root / "case" / "out.csv").write_text(written["value"])

    monkeypatch.setattr(regenerate, "EXPECTED", expected)
    monkeypatch.setattr(regenerate, "run_cases", fake_run)
    assert regenerate.main(["--check"]) == 0
    written["value"] = "2,30.0\n"
    assert regenerate.main(["--check"]) == 1
    assert (expected / "case" / "out.csv").read_text() == "1,30.0\n"
    assert not (tmp_path / "blas.json").exists()
    assert regenerate.main([]) == 0
    assert (expected / "case" / "out.csv").read_text() == "2,30.0\n"
    # the BLAS record sits next to expected/, outside the compared files
    assert json.loads((tmp_path / "blas.json").read_text()) == blas_info() == recorded_blas()


def test_blas_info_reads_unknown_without_the_library(monkeypatch):
    def unreadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(regenerate.ctypes, "CDLL", unreadable)
    assert blas_info() == {"config": "unknown", "core": "unknown"}


_HEATING = (serialize.read_heating, lambda path, table: serialize.write_heating(path, *table))
_READERS = {"trace.csv": (serialize.read_trace, serialize.write_trace),
            "stream.txt": (serialize.read_stream, serialize.write_stream),
            "spectrum.csv": (serialize.read_spectrum, serialize.write_spectrum),
            "graph.csv": (serialize.read_graph, serialize.write_graph),
            "couplings.csv": (serialize.read_couplings, serialize.write_couplings),
            "phase_diagram.csv": (serialize.read_phase_diagram, serialize.write_phase_diagram),
            "heating_eps.csv": _HEATING, "heating_period.csv": _HEATING,
            "heating_highfreq.csv": _HEATING}
#: Every non-JSON file under expected/.
_TABLES = sorted(p.relative_to(EXPECTED) for p in EXPECTED.glob("*/*") if p.suffix != ".json")


def test_every_golden_table_has_a_reader():
    assert {path.name for path in _TABLES} == set(_READERS)


@pytest.mark.parametrize("path", _TABLES, ids=str)
def test_golden_files_read_back_and_rewrite_byte_for_byte(tmp_path, path):
    read, write = _READERS[path.name]
    write(tmp_path / path.name, read(EXPECTED / path))
    assert (tmp_path / path.name).read_bytes() == (EXPECTED / path).read_bytes()
