"""Reports: one table of items, rendered as CSV or Markdown.

Both renderings carry exactly the same data; rationals are always
printed exactly as p/q.
"""

from __future__ import annotations

from fractions import Fraction


def fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return ""
    return str(value)


class Report:
    """A command's report: its columns, its rows of rendered cells and its
    summary counts.  The rows and counts are filled in place, so each
    report makes its own list and dict in ``__init__``."""

    __slots__ = ("command", "columns", "items", "summary")

    def __init__(self, command: str, columns: tuple[str, ...]) -> None:
        self.command = command
        self.columns = columns
        self.items: list = []
        self.summary: dict = {}

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match the columns")
        self.items.append(tuple(fmt(v) for v in values))

    def count(self, key: str, n: int = 1) -> None:
        self.summary[key] = self.summary.get(key, 0) + n

    def csv_lines(self):
        """The CSV rendering, one line at a time."""
        yield "# command: " + self.command + "\n"
        yield ",".join(self.columns) + "\n"
        for item in self.items:
            yield ",".join(_csv_quote(v) for v in item) + "\n"
        for key in sorted(self.summary):
            yield f"# {key}: {self.summary[key]}\n"

    def markdown_lines(self):
        """The Markdown rendering, one line at a time."""
        yield f"### `{self.command}`\n\n"
        yield "| " + " | ".join(self.columns) + " |\n"
        yield "|" + "|".join("---" for _ in self.columns) + "|\n"
        for item in self.items:
            yield "| " + " | ".join(v.replace("|", "\\|") for v in item) + " |\n"
        if self.summary:
            yield "\n"
            for key in sorted(self.summary):
                yield f"- {key}: {self.summary[key]}\n"

    def render_csv(self) -> str:
        return "".join(self.csv_lines())

    def failures(self) -> int:
        return self.summary.get("FAIL", 0)


def _csv_quote(v: str) -> str:
    if "," in v or '"' in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v
