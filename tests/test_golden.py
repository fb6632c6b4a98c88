"""Every CLI kind reproduces the committed golden outputs byte for byte.

The cases and their outputs live in ``tests/golden``; see
``tests/golden/regenerate.py`` for how they run and how to regenerate them.
"""

from golden.regenerate import CASES, EXPECTED, changes, output_files, run_cases


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
