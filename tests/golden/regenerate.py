"""Golden-output suite: run every case of ``cases.json`` through the CLI.

Each case is one ``rondeau`` command line, run with the case root as the
working directory so every path it writes or reads (``--out``, ``--trace``)
is relative and lands in the outputs byte for byte.  A case directory holds
the files the command wrote plus ``stdout.json``, the line it printed.
Manifests are stored without ``versions`` and ``config.out_dir``, the only
fields that may differ between machines or checkouts.

``tests/test_golden.py`` reruns the cases and compares bytes.  After a change
that moves outputs on purpose, regenerate the committed copy with

    PYTHONPATH=src python tests/golden/regenerate.py

which prints every file it added, changed or removed relative to the copy it
replaced, and name each of them, with its reason, in CHANGES.md.  It also
writes ``blas.json`` next to ``expected/``: the BLAS the outputs were made
with (`blas_info`), since another GEMM kernel sums in another order.  A changed
file is reported as ``floats only`` with the largest |delta| of its float
tokens when nothing else in it moved (a reassociated matrix product), as ``header
lines only`` when only its ``#`` lines moved, and as ``content`` otherwise: a count,
an integer, a word or a line that changed.

    PYTHONPATH=src python tests/golden/regenerate.py --check

runs the cases into a temporary directory instead, writes nothing under
``expected/``, prints the same lines, and exits 1 on an added or removed
file, a change of header lines or content, or a float token that moved by
more than ``CHECK_RTOL`` of its magnitude.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = json.loads((HERE / "cases.json").read_text())
EXPECTED = HERE / "expected"

#: A decimal number token; a float token is one written with a point or an exponent.
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

#: Largest move of a float token, relative to its magnitude, that ``--check`` accepts.
CHECK_RTOL = 1e-12


def normalized(path: Path) -> bytes:
    """Bytes of an output file, a manifest without its machine-dependent fields."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("versions", None)
    manifest["config"].pop("out_dir", None)
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()


def blas_info() -> dict[str, str]:
    """numpy's bundled OpenBLAS: its build ``config`` and the ``core`` kernel it picked at
    run time, read through ctypes; "unknown" where the library cannot be read."""
    import numpy as np

    getters = {"config": "scipy_openblas_get_config64_", "core": "scipy_openblas_get_corename64_"}
    info = dict.fromkeys(getters, "unknown")
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
            for key, name in getters.items():
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                info[key] = getter().decode()
        except (OSError, AttributeError):
            pass
    return info


def recorded_blas() -> dict[str, str] | str:
    """The ``blas.json`` written with ``expected/``, or a note that there is none."""
    path = EXPECTED.parent / "blas.json"
    return json.loads(path.read_text()) if path.exists() else f"no {path}"


def run_cases(root: Path) -> None:
    """Run every case in order under ``root`` (a decode reads an earlier encode)."""
    from rondeau.cli import main

    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in CASES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"golden case {name} exited with {code}")
            Path(name).mkdir(exist_ok=True)  # capacity writes no directory
            Path(name, "stdout.json").write_text(stdout.getvalue())
    finally:
        os.chdir(cwd)


def output_files(root: Path) -> dict[str, bytes]:
    """Normalized bytes of every file under ``root``, keyed by relative path."""
    return {p.relative_to(root).as_posix(): normalized(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def changes(before: dict[str, bytes], after: dict[str, bytes]) -> dict[str, list[str]]:
    """Files of ``after`` added, changed or removed relative to ``before``."""
    return {"added": sorted(after.keys() - before.keys()),
            "changed": sorted(k for k in after.keys() & before.keys()
                              if after[k] != before[k]),
            "removed": sorted(before.keys() - after.keys())}


def float_drift(before: bytes, after: bytes, relative: bool = False) -> float | None:
    """Largest |delta| between two texts that differ only in float tokens, else None.

    With ``relative`` each token's |delta| is divided by the larger of its two
    magnitudes.
    """
    old, new = (NUMBER.split(text.decode()) for text in (before, after))
    if len(old) != len(new) or old[::2] != new[::2]:
        return None
    drift = 0.0
    for a, b in zip(old[1::2], new[1::2]):
        if a != b:
            if not (set(a) & set(".eE") and set(b) & set(".eE")):
                return None
            x, y = float(a), float(b)
            delta = abs(x - y)
            if relative and delta:
                delta /= max(abs(x), abs(y))
            drift = max(drift, delta)
    return drift


def describe(before: bytes, after: bytes) -> str:
    """How a changed file moved: ``header lines only`` when its lines that do not start with
    ``#`` are unchanged, else ``floats only, max |delta| ...`` or ``content``."""
    body = lambda text: [line for line in text.splitlines() if not line.startswith(b"#")]
    if body(before) == body(after):
        return "header lines only"
    drift = float_drift(before, after)
    return "content" if drift is None else f"floats only, max |delta| {drift:.3g}"


def check_failures(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    """Files that ``--check`` rejects: added, removed, or changed beyond ``CHECK_RTOL``."""
    moved = changes(before, after)
    drifts = {name: float_drift(before[name], after[name], relative=True)
              for name in moved["changed"]}
    return sorted(moved["added"] + moved["removed"]
                  + [name for name, drift in drifts.items()
                     if drift is None or drift > CHECK_RTOL])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden outputs.")
    parser.add_argument("--check", action="store_true",
                        help="compare against expected/ without writing it; exit 1 on a "
                             f"change beyond floats that moved by {CHECK_RTOL:g} relative")
    check = parser.parse_args(argv).check
    before = output_files(EXPECTED) if EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_cases(root)
        for path in root.rglob("manifest.json"):
            path.write_bytes(normalized(path))
        after = output_files(root)
        if not check:
            shutil.rmtree(EXPECTED, ignore_errors=True)
            shutil.copytree(root, EXPECTED)
            (EXPECTED.parent / "blas.json").write_text(
                json.dumps(blas_info(), indent=2, sort_keys=True) + "\n")
    for change, names in changes(before, after).items():
        for name in names:
            how = f" ({describe(before[name], after[name])})" if change == "changed" else ""
            print(f"{change} {name}{how}")
    if check:
        failures = check_failures(before, after)
        print(f"checked {len(after)} files for {len(CASES)} cases against {EXPECTED}: "
              f"{len(failures)} beyond floats within {CHECK_RTOL:g} relative", file=sys.stderr)
        return 1 if failures else 0
    print(f"wrote {len(after)} files for {len(CASES)} cases "
          f"into {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
