"""The README must stay true: its code block runs, its scale table matches
BENCH_scale.json (documentation-rot guards)."""

import json
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def extract_python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_quickstart_executes():
    blocks = extract_python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README lost its quickstart code block"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "<README quickstart>", "exec"), namespace)
    # the quickstart leaves the analyst's samples in scope
    assert len(namespace["samples"]) == 10


def test_readme_mentions_every_top_level_package():
    text = README.read_text(encoding="utf-8")
    for package in ("graphs", "isomorphism", "core", "attacks", "metrics",
                    "analysis", "baselines", "datasets", "experiments",
                    "runtime"):
        assert f"{package}/" in text, f"README architecture misses {package}/"


SCALE_HEADER = "| Graph | partition (s) |"
_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _scale_table(text: str) -> dict[tuple[str, int], dict[str, str]]:
    """The README scale table as (family, n) -> {column header: cell}."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(SCALE_HEADER))
    header = [cell.strip() for cell in lines[start].strip().strip("|").split("|")]
    rows: dict[tuple[str, int], dict[str, str]] = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.match(r"(BA|WS) n=10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", cells[0])
        assert match, f"unreadable scale row {line!r}"
        key = (match[1].lower(), 10 ** int(match[2].translate(_SUPERSCRIPTS)))
        rows[key] = dict(zip(header, cells))
    return rows


def test_readme_scale_table_matches_bench_scale():
    bench = json.loads((README.parent / "BENCH_scale.json").read_text(encoding="utf-8"))
    table = _scale_table(README.read_text(encoding="utf-8"))
    for run in bench["runs"]:
        row = table.pop((run["family"], run["n"]))
        assert row["partition (s)"] == f"{run['partition_seconds']:.2f}", run["n"]
        for stage in run["stages"]:
            assert row[f"{stage['name']} (s)"] == f"{stage['wall_seconds']:.2f}", \
                (run["family"], run["n"], stage["name"])
    assert not table, f"README rows with no BENCH_scale.json run: {sorted(table)}"
