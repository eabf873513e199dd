"""`tools/write_outputs.py`: one small run, and `--compare` on two small
output trees."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "write_outputs", ROOT / "tools" / "write_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_numeric_differences_are_bounded(tmp_path, capsys):
    same = {"run/exit_code.txt": "0\n", "run/out/report_lambda0.json": '{"x": 2}\n'}
    before = _tree(tmp_path / "a", {**same, "run/out/k.csv": "s,t\n-8,1e-3\n"})
    after = _tree(tmp_path / "b", {**same, "run/out/k.csv": "s,t\n-8,1.1e-3\n"})
    assert _tool().main(["--compare", str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "run/out/k.csv: 1 of 2 numbers differ, largest by 1.25e-05 of the largest magnitude 8",
        "largest numeric difference: 1.25e-05, in run/out/k.csv",
    ]


def test_other_differences_are_flagged(tmp_path, capsys):
    before = _tree(tmp_path / "a", {
        "run/exit_code.txt": "0\n",
        "run/stderr.txt": "",
        "run/out/report_lambda0.json": '{"lambda0": 1.5, "v": null}\n',
        "run/out/only.csv": "1\n",
    })
    after = _tree(tmp_path / "b", {
        "run/exit_code.txt": "3\n",
        "run/stderr.txt": "failed checks: x\n",
        "run/out/report_lambda0.json": '{"lambda1": 1.5, "v": 1.0}\n',
    })
    assert _tool().main(["--compare", str(before), str(after)]) == 1
    flagged = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()}
    assert flagged == {
        "run/exit_code.txt", "run/stderr.txt", "run/out/report_lambda0.json", "run/out/only.csv"
    }


def test_moved_json_numbers_are_named(tmp_path, capsys):
    checks = [
        {"name": "sequence_gram_defect", "value": 1e-16, "tolerance": 1e-10, "passed": True},
        {"name": "kernel_derivative_fd_defect", "value": 1.1e-05, "tolerance": 1e-05,
         "passed": False},
    ]
    moved = [dict(checks[0]), {**checks[1], "value": 5.6e-07}]
    report = {"condition": 804.5, "discarded_energy": None, "spectrum": [1.0, float("nan")]}
    before = _tree(tmp_path / "a", {"run/out/verify.json": json.dumps(
        {"checks": checks, "reports": [report]})})
    after = _tree(tmp_path / "b", {"run/out/verify.json": json.dumps(
        {"checks": moved, "reports": [{**report, "spectrum": [1.5, float("nan")]}]})})
    assert _tool().main(["--compare", str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("run/out/verify.json: 2 of ")
    assert lines[1:3] == [
        "  checks[kernel_derivative_fd_defect].value: 1.1e-05 -> 5.6e-07",
        "  reports[0].spectrum[0]: 1.0 -> 1.5",
    ]
    assert lines[3].startswith("largest numeric difference: ")


def test_each_run_reports_its_wall_time_and_peak_rss(tmp_path, capsys, monkeypatch):
    """The tool's stdout gives each run's exit code, wall time and peak RSS;
    OUTDIR gets the run's files and no measurement."""
    tool = _tool()
    config = {**tool.RANK_ONE_D8, "depth": 6, "lambda": [[0.3, 0.1]]}
    monkeypatch.setattr(tool, "commands", lambda: [("reduce-d6", "reduce", config, 1)])
    assert tool.main([str(ROOT), str(tmp_path / "out")]) == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(r"reduce-d6: exit 0, (\d+\.\d\d) s, peak RSS (\d+\.\d) MiB", line)
    assert match, line
    assert float(match[1]) > 0 and float(match[2]) > 10  # the CLI imports numpy
    run = tmp_path / "out" / "reduce-d6"
    assert {p.name for p in run.iterdir()} == {
        "config.json", "out", "stdout.txt", "stderr.txt", "exit_code.txt"
    }
    assert (run / "exit_code.txt").read_text() == "0\n"
    assert (run / "stderr.txt").read_text() == ""
    assert "MiB" not in (run / "stdout.txt").read_text()


def test_runs_cover_alpha_zero_and_two_threads_at_1024():
    """An alpha = 0 reduce at N = 1024 gives the first-kind solve at depth a
    row, and the two-thread reduce-d10 run repeats the one-thread one."""
    runs = {name: (command, config, threads) for name, command, config, threads
            in _tool().commands()}
    one = runs["reduce-reduce-d10-202"]
    assert one[1]["depth"] == 10 and one[1]["alpha"] != 0 and one[2] == 1
    assert runs["reduce-reduce-d10-202-two-threads"] == ("reduce", one[1], 2)
    assert runs["reduce-reduce-d10-202-alpha0"] == ("reduce", {**one[1], "alpha": 0.0}, 1)
