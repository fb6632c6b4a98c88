"""Every CLI kind reproduces the committed golden outputs byte for byte.

The cases and their outputs live in ``tests/golden``; see
``tests/golden/regenerate.py`` for how they run and how to regenerate them.
"""

import pytest

from golden.regenerate import (CASES, EXPECTED, changes, describe, float_drift, output_files,
                               run_cases)


def test_cli_outputs_match_golden_files(tmp_path):
    run_cases(tmp_path)
    actual = output_files(tmp_path)
    expected = output_files(EXPECTED)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from tests/golden/expected: {changed}"


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
