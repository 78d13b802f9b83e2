"""Source layout: the line count of ``src/`` is tracked as a measure of
simplicity, so it must not be lowered by packing code into long lines."""

import pathlib

MAX_LINE = 95
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} characters"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, "\n".join(long_lines)
