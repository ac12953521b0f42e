"""Repository tools: the artifact comparer on hand-written artifact roots."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_artifact_diff_reports_largest_moves(tmp_path):
    artifact_diff = _load("artifact_diff")
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, {
        "a/summary.json": '{"metrics": {"e0": 2.0, "q": 0.5, "n": 3.0}, '
                          '"name": "a", "rows": [{"err": 1e-3}, {"err": 0.0}]}',
        "a/series.csv": "t,err,label\n0,1.0,x\n1,2.0,x\n2,4.0,x\n",
        "b/summary.json": '{"metrics": {"e0": 1.0}}',
        "b/chi.bin": "abc",
        "c/rows.csv": "t\n0\n",
        "gone.csv": "t\n0\n",
    })
    _write(new, {
        "a/summary.json": '{"metrics": {"e0": 2.0, "q": 0.5000001, "n": 3}, '
                          '"name": "b", "rows": [{"err": 2e-3}, {"err": 1e-9}], '
                          '"extra": 1}',
        "a/series.csv": "t,err,label\n0,1.5,x\n1,2.0,y\n2,3.0,x\n",
        "b/summary.json": '{"metrics": {"e0": 1.0}}',
        "b/chi.bin": "abd",
        "c/rows.csv": "t\n0\n1\n",
        "new.json": "{}",
    })
    assert artifact_diff.compare_roots(old, new) == [
        "a/series.csv:",
        "  err: rel 5.00e-01  abs 1.00e+00",
        "  label: 'x' -> 'y'",
        "a/summary.json:",
        "  metrics.q: rel 2.00e-07  abs 1.00e-07",
        "  rows[0].err: rel 1.00e+00  abs 1.00e-03",
        "  rows[1].err: rel inf  abs 1.00e-09",
        "  name: 'a' -> 'b'",
        "  extra: only in new",
        "b/chi.bin:",
        "  bytes differ",
        "b/summary.json: identical",
        "c/rows.csv:",
        "  rows: 1 -> 2",
        "gone.csv: only in old",
        "new.json: only in new",
    ]


def test_artifact_diff_needs_two_trees(capsys):
    assert _load("artifact_diff").main(["only-one"]) == 2
    assert "OLD_TREE NEW_TREE" in capsys.readouterr().err
