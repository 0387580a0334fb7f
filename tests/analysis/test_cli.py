"""Exit codes and report formats of ``python -m repro.analysis``."""

import json

from repro.analysis.cli import main


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path, {"src/repro/core/ok.py": "VALUE = 1\n"})
    assert main([str(root / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_findings_exit_one_with_rule_id_and_location(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {
            "src/repro/core/bad.py": (
                "def fit():\n    raise RuntimeError('x')\n"
            )
        },
    )
    assert main([str(root / "src")]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out
    assert "bad.py:2" in out


def test_json_format(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"src/repro/core/bad.py": "def record(h=[]):\n    return h\n"},
    )
    assert main([str(root / "src"), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["n_findings"] == 1
    (finding,) = document["findings"]
    assert finding["rule_id"] == "RPR006"
    assert finding["line"] == 1


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
        assert rule_id in out


def test_explain_known_rule(capsys):
    assert main(["--explain", "rpr005"]) == 0
    out = capsys.readouterr().out
    assert "RPR005" in out
    assert "rationale" in out


def test_explain_unknown_rule(capsys):
    assert main(["--explain", "RPR999"]) == 2


def test_select_filters_rules(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {
            "src/repro/core/bad.py": (
                "def fit(h=[]):\n    raise RuntimeError('x')\n"
            )
        },
    )
    assert main([str(root / "src"), "--select", "RPR006"]) == 1
    out = capsys.readouterr().out
    assert "RPR006" in out
    assert "RPR003" not in out


def test_ignore_filters_rules(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"src/repro/core/bad.py": "def record(h=[]):\n    return h\n"},
    )
    assert main([str(root / "src"), "--ignore", "RPR006"]) == 0


def test_suppressions_are_counted(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {
            "src/repro/core/ok.py": (
                "def record(h=[]):  # repro: noqa-RPR006 — fixture\n    return h\n"
            )
        },
    )
    assert main([str(root / "src")]) == 0
    assert "1 suppressed" in capsys.readouterr().out


def test_complexity_unknown_probe_exits_two(capsys):
    assert main(["--complexity", "--complexity-probes", "nope"]) == 2
    assert "unknown probe" in capsys.readouterr().err


def test_complexity_single_probe_writes_baseline_and_report(
    tmp_path, capsys
):
    baseline = tmp_path / "complexity_baseline.json"
    report = tmp_path / "report.json"
    code = main(
        [
            "--complexity",
            "--complexity-probes",
            "csr_matvec",
            "--complexity-baseline",
            str(baseline),
            "--update-complexity-baseline",
            "--complexity-report",
            str(report),
            "--format",
            "json",
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["n_findings"] == 0
    payload = json.loads(baseline.read_text())
    assert set(payload["probes"]) == {"csr_matvec"}
    entry = payload["probes"]["csr_matvec"]
    assert entry["claim"] == "O(nnz)"
    assert len(entry["sizes"]) == len(entry["costs"]) >= 4
    written = json.loads(report.read_text())
    assert written["violations"] == []
    assert written["host"]["usable_cores"] >= 1


def test_complexity_check_against_baseline(tmp_path, capsys):
    baseline = tmp_path / "complexity_baseline.json"
    args = [
        "--complexity",
        "--complexity-probes",
        "csr_matvec",
        "--complexity-baseline",
        str(baseline),
    ]
    assert main(args + ["--update-complexity-baseline"]) == 0
    capsys.readouterr()
    # second run checks tolerance AND the just-written ratchet
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_probe_subset_update_keeps_other_entries(tmp_path, capsys):
    baseline = tmp_path / "complexity_baseline.json"
    args = [
        "--complexity",
        "--complexity-baseline",
        str(baseline),
        "--update-complexity-baseline",
    ]
    assert main(args + ["--complexity-probes", "csr_matvec"]) == 0
    first = json.loads(baseline.read_text())["probes"]["csr_matvec"]
    assert main(args + ["--complexity-probes", "csr_rmatvec"]) == 0
    capsys.readouterr()
    probes = json.loads(baseline.read_text())["probes"]
    assert set(probes) == {"csr_matvec", "csr_rmatvec"}
    assert probes["csr_matvec"] == first
