"""The manifest of pinned outputs and its runner agree.

``tests/golden.py`` runs the pinned ``dp3`` commands; ``tests/golden.sha256``
is its committed output.  These tests run no slow command: a drift between
the command list and the manifest, or between the runner and a manifest
line, fails here rather than only in the full run.
"""

import golden

MANIFEST = golden.TREE / "tests" / "golden.sha256"


def manifest_lines() -> list[str]:
    return MANIFEST.read_text().splitlines()


def test_manifest_names_the_command_list_one_to_one():
    names = [line.split("  ", 2)[2] for line in manifest_lines()]
    assert names == [golden.name(args) for args in golden.COMMANDS]
    assert len(set(names)) == len(names)


def test_runner_reproduces_a_manifest_line():
    args = ["enum-abcd", "--max", "50"]
    expected = next(line for line in manifest_lines() if line.endswith("  " + golden.name(args)))
    line, _, _ = golden.run(args)
    assert line == expected
