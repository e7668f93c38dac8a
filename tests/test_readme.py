"""README examples: the library example and the CLI session print what README shows."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tcaseries import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """The text of README's `## title` section, up to the next `##` or `###` heading."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)^##", README, re.M | re.S).group(1)


def _fenced(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _cli_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each `$ tcaseries ...` example: the lines after the
    command, up to a blank line or the next command."""
    examples = []
    for block in _fenced(_section("Command-line interface"), "text"):
        for chunk in re.split(r"^\$ tcaseries ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            examples.append((shlex.split(command), shown.split("\n\n")[0].rstrip("\n") + "\n"))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_library_example_prints_what_it_shows():
    (code,) = _fenced(_section("Library example"), "python")
    # the printed line is the comment on the example's last line
    shown = re.search(r"^print\(.*#\s*(.*)$", code, re.M).group(1)
    assert shown == "t^2*y'' + 3*t*y' - 4*t^2*y"
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == shown + "\n"


def test_readme_shows_cli_examples():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "detring", "hilbert", "invariants", "dfinite", "charpoly"]


@pytest.mark.parametrize("argv,shown", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(argv, shown):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (0, shown)
