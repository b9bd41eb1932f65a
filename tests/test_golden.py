"""Default CLI outputs against the committed golden files in ``tests/golden``.

``manifest.json`` maps each golden file to the command line that made it and
records the numpy, scipy and Python versions it was made with.  Its
``calibrate`` entries read a committed input CSV, named by ``--data`` relative
to ``tests/golden``; their fits run on scipy's ``least_squares``.  The two
``wigner`` grids (6 561 rows; ~0.17 MB as CSV, ~0.5 MB as JSON) are pinned,
in both formats, by the sha256 of their output instead of a committed file.
A change that moves an output on purpose
regenerates the file (``echosense <command> --out tests/golden/<file>``), or
its hash, and lists the moved rows.

``oracle-check`` has no golden file: its 12-digit ``max_rel_err`` column moves
at rounding level with the BLAS build and its blocking, so only its ``ok``
flags are stable, and ``test_cli.py`` checks those.
"""

import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from echosense.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def first_difference(expected: str, got: str) -> str:
    """The first differing row and column of two CSV texts, as a message."""
    want, have = list(csv.reader(expected.splitlines())), list(csv.reader(got.splitlines()))
    if want[0] != have[0]:
        return f"header {have[0]} != golden {want[0]}"
    for index, (row_want, row_have) in enumerate(zip(want[1:], have[1:]), start=1):
        for column, cell_want, cell_have in zip(want[0], row_want, row_have):
            if cell_want != cell_have:
                return f"row {index}, column {column}: {cell_have} != golden {cell_want}"
    return f"{len(have) - 1} rows != golden {len(want) - 1}"


def first_moved_line(expected: str, got: str) -> str:
    """The first differing line of two texts, as a message."""
    for index, (want, have) in enumerate(zip(expected.splitlines(), got.splitlines()), 1):
        if want != have:
            return f"line {index}: {have} != golden {want}"
    return "line count differs"


@pytest.mark.parametrize("name", sorted(MANIFEST["outputs"]))
def test_default_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(MANIFEST["outputs"][name] + ["--out", str(out)]) == 0
    expected, got = (GOLDEN / name).read_text(), out.read_text()
    made = MANIFEST["made_with"]
    moved = first_difference if name.endswith(".csv") else first_moved_line
    assert got == expected, (
        f"{name}: {moved(expected, got)} (golden made with numpy "
        f"{made['numpy']}, Python {made['python']}; this run numpy {np.__version__}, "
        f"Python {platform.python_version()})"
    )


@pytest.mark.parametrize("name", sorted(MANIFEST["sha256"]))
def test_default_output_matches_golden_hash(name, tmp_path):
    entry = MANIFEST["sha256"][name]
    out = tmp_path / name
    assert main(entry["argv"] + ["--out", str(out)]) == 0
    made = MANIFEST["made_with"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"], (
        f"{name}: output hash moved (golden made with numpy {made['numpy']}, Python "
        f"{made['python']}; this run numpy {np.__version__}, Python "
        f"{platform.python_version()}); diff it against the output of the parent commit"
    )


@pytest.mark.parametrize("name", sorted(MANIFEST["calibrate"]))
def test_calibrate_output_matches_golden(name, tmp_path):
    argv = list(MANIFEST["calibrate"][name])
    data = argv.index("--data") + 1
    argv[data] = str(GOLDEN / argv[data])
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    expected, got = (GOLDEN / name).read_text(), out.read_text()
    made = MANIFEST["made_with"]
    assert got == expected, (
        f"{name}: {first_moved_line(expected, got)} (golden made with scipy "
        f"{made['scipy']}, numpy {made['numpy']}; this run scipy {scipy.__version__}, "
        f"numpy {np.__version__})"
    )


def test_first_difference_names_row_and_column():
    golden = "a,b\n1,2\n3,4\n"
    assert first_difference(golden, "a,b\n1,2\n3,5\n") == "row 2, column b: 5 != golden 4"
    assert first_difference(golden, "a,b\n1,2\n") == "1 rows != golden 2"
    assert first_difference(golden, "a,c\n1,2\n3,4\n").startswith("header")


def test_first_moved_line_names_line():
    golden = "a,b\n1,2\n3,4\n"
    assert first_moved_line(golden, "a,b\n1,2\n3,5\n") == "line 3: 3,5 != golden 3,4"
    assert first_moved_line(golden, "a,b\n1,2\n") == "line count differs"
