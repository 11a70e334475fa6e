"""``tools/output_digest.py`` runs against the package as it is: its Golub-Kahan
blocks call ``tikhonov._golub_kahan`` by its private signature, so a change to
that signature fails here, not only when the tool is next run by hand.

The tool is imported read-only from its file."""

import ast
import importlib.util
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fields(line):
    """The ``key=value`` fields of a digest line, by key; of a list only its
    first item (``_list`` reads it whole)."""
    return dict(field.split("=", 1) for field in line.split() if "=" in field)


def _list(line, key):
    """The list a digest line prints as ``key=[...]``."""
    return ast.literal_eval(re.search(rf" {key}=(\[[^\]]*\])", line)[1])


def test_breakdown_blocks_print_every_column(capsys):
    _load()._breakdown_blocks()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 22
    blocks = [line.split()[:4] + [_fields(line)["depth"]] for line in lines
              if line.startswith("block ")]
    # each column's quadrature, then its path: a column that breaks down at
    # step one, a zero column and two that run on; then five probes of rank 5
    retire = [[str(j), kind, depth] for kind in ("quadrature", "path")
              for j, depth in enumerate(("9", "1", "0", "9"))]
    rank5 = [[str(j), kind, "5"] for kind in ("quadrature", "path") for j in range(5)]
    assert blocks == ([["block", "retire12x9", f"column={j}", kind, depth]
                       for j, kind, depth in retire]
                      + [["block", "rank5_5x9", f"column={j}", kind, depth]
                         for j, kind, depth in rank5])
    assert all(_fields(line)["residual"] == "0.0" for line in lines if line.startswith("block "))
    measures = [line for line in lines if line.startswith("measure ")]
    assert [line.split()[:3] for line in measures[:3]] == [
        ["measure", "rank5_5x9", f"index={i}"] for i in (0, 50, 99)]
    assert _fields(measures[3])["nodes"] == "25" and _list(measures[3], "depths") == [5] * 5
    # the measure draws the block's five probes: the same settle estimates
    settle = [float(_fields(line)["settle"]) for line in lines
              if line.startswith("block rank5_5x9") and " quadrature " in line]
    assert _list(measures[3], "settle") == settle
    assert all(0.0 < s < 1.0 for s in settle)


def test_library_rejections_name_a_value_error_each(capsys):
    # one mistyped value per check family, each a ValueError, none an answer
    tool = _load()
    tool._library_rejections(tool.problems.make_problem("shaw", None, 64))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert all(line.split()[:1] + line.split()[2:3] == ["reject-lib", "ValueError"]
               for line in lines)
