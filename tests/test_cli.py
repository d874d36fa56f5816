"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import gc
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import stampcover.cli as cli
import stampcover.core as core
import stampcover.search as search
from stampcover.cli import main
from support import REPORT_KEYS, STAMPCOVER, child_env, run_child, traced_peak

A9_TEXT = "1,3,5,8,20,23,25,27,28"

_REAL_EVALUATE = search._evaluate

# ---------- cover ----------


def test_cover_table_is_a_bare_number(capsys):
    assert main(["cover", "--basis", "1,3,6,10", "--h", "3", "--format", "table"]) == 0
    assert capsys.readouterr().out == "23\n"


def test_cover_json(capsys):
    assert main(["cover", "--basis", "1,3,6,10", "--h", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"basis": "1,3,6,10", "h": 3, "cover": 23}


def test_cover_json_round_trips(capsys):
    main(["cover", "--basis", "1,3,6,10", "--h", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("fmt", ["table", "json", "jsonl"])
def test_cover_profile_prints_each_row_as_it_is_made(monkeypatch, fmt):
    # holding 20000 row dicts before the first line takes over 5 MB, and
    # the JSON text of them about 8 MiB (jsonl) to 16 MiB (json)
    with open(os.devnull, "w", encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdout", null)
        with traced_peak() as probe:
            code = main(
                ["cover", "--basis", "1,2", "--h", "20000", "--profile", "--format", fmt]
            )
    assert code == 0
    assert probe.peak < 1 << 20


def test_cover_profile_refuses_more_rows_than_the_table_limit(tmp_path, monkeypatch, capsys):
    # 1,2 saturates at h = 1, so its sweep is one budget at any h, but a
    # profile prints one row per budget
    monkeypatch.setattr(core, "DEFAULT_TABLE_LIMIT", 10)
    args = ["cover", "--basis", "1,2", "--profile", "--format", "table"]
    assert main([*args, "--h", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 10
    assert main([*args, "--h", "11"]) == 3
    assert capsys.readouterr() == (
        "", "error: OverflowLimitError: cover profile would need 11 rows, limit is 10\n"
    )
    batch = tmp_path / "bases.txt"
    batch.write_text("1\n", encoding="utf-8")
    assert main(["cover", "--basis-file", str(batch), "--h", "11", "--profile"]) == 3
    assert capsys.readouterr() == (
        "",
        f"error: OverflowLimitError: {batch}:1: cover profile would need 11 rows,"
        " limit is 10\n",
    )
    # a sweep's own refusal comes first and keeps its text
    assert main(["cover", "--basis", "1,3", "--h", "11", "--profile"]) == 3
    assert capsys.readouterr().err == (
        "error: OverflowLimitError: cover sweep would need 35 entries, limit is 10\n"
    )


# ---------- analyze ----------


def test_analyze_json_golden(capsys):
    assert main(["analyze", "--basis", A9_TEXT, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == REPORT_KEYS
    assert payload["h0"] == 3
    assert payload["h1"] == 4
    assert payload["counterexample"] is True


def test_analyze_exit_4_when_no_saturation_within_cap(capsys):
    code = main(
        ["analyze", "--basis", "1,3,6,10", "--cap", "5", "--format", "json"]
    )
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["h1"] is None
    assert payload["h1_found"] is False


def test_analyze_table_reports_missing_h1(capsys):
    main(["analyze", "--basis", "1,3,6,10", "--cap", "5", "--format", "table"])
    assert "not found within cap 5" in capsys.readouterr().out


# ---------- scan ----------


def test_scan_writes_jsonl_and_summary(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    code = main(["scan", "--k", "3", "--ak-max", "12", "--out", str(out)])
    assert code == 0
    assert (
        capsys.readouterr().err.strip()
        == "scanned=10 counterexamples=0 k=3 ak_max=12 mode=symmetric"
    )
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    assert all(list(json.loads(line)) == REPORT_KEYS for line in lines[:-1])
    assert json.loads(lines[-1]) == {"summary": {"scanned": 10, "counterexamples": 0}}


def test_scan_of_one_element_bases_writes_one_record(tmp_path, capsys):
    record = (
        '{"basis":"1","k":1,"symmetric":true,"h0":2,"h1":2,"h1_found":true,'
        '"theorem_bound":2,"conjecture_holds":true,"counterexample":false}\n'
        '{"summary":{"scanned":1,"counterexamples":0}}\n'
    )
    for mode in ("all", "symmetric"):
        out = tmp_path / f"{mode}.jsonl"
        args = ["scan", "--k", "1", "--ak-max", "3", "--mode", mode, "--out", str(out)]
        assert main(args) == 0
        summary = f"scanned=1 counterexamples=0 k=1 ak_max=3 mode={mode}\n"
        assert capsys.readouterr().err == summary
        assert out.read_text() == record


def test_scan_exit_5_on_counterexample(tmp_path, capsys):
    out = tmp_path / "nine.jsonl"
    code = main(["scan", "--k", "9", "--ak-max", "28", "--out", str(out)])
    assert code == 5
    assert capsys.readouterr().err.strip().startswith("scanned=1430 counterexamples=1")
    flagged = [
        json.loads(line)
        for line in out.read_text().splitlines()
        if '"counterexample":true' in line
    ]
    assert [record["basis"] for record in flagged] == [A9_TEXT]


def test_scan_threads_byte_identical(tmp_path):
    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    args = ["scan", "--k", "4", "--ak-max", "20"]
    assert main(args + ["--out", str(serial), "--threads", "1"]) == 0
    assert main(args + ["--out", str(pooled), "--threads", "4"]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_scan_resume_via_cli(tmp_path):
    reference = tmp_path / "reference.jsonl"
    args = ["scan", "--k", "4", "--ak-max", "16", "--out"]
    assert main(args + [str(reference)]) == 0
    expected = reference.read_bytes()

    torn = tmp_path / "torn.jsonl"
    lines = expected.split(b"\n")
    torn.write_bytes(b"\n".join(lines[:2]) + b"\n" + lines[2][:10])
    assert main(["scan", "--k", "4", "--ak-max", "16", "--out", str(torn), "--resume"]) == 0
    assert torn.read_bytes() == expected


def test_interrupted_scan_exits_130_and_resumes(tmp_path, monkeypatch, capsys):
    args = ["scan", "--k", "4", "--ak-max", "16", "--out"]
    reference = tmp_path / "reference.jsonl"
    assert main(args + [str(reference)]) == 0

    out = tmp_path / "interrupted.jsonl"
    real_evaluate = search._evaluate
    state = {"calls": 0}

    def fragile(basis):
        if state["calls"] == 3:
            raise KeyboardInterrupt
        state["calls"] += 1
        return real_evaluate(basis)

    monkeypatch.setattr(search, "_evaluate", fragile)
    capsys.readouterr()
    assert main(args + [str(out)]) == 130
    assert capsys.readouterr().err == "error: interrupted (rerun with --resume)\n"
    monkeypatch.setattr(search, "_evaluate", real_evaluate)

    assert len(out.read_bytes().splitlines()) == 3
    assert main(args + [str(out), "--resume"]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_interrupted_command_without_resume_gets_no_resume_hint(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "search_extremal", interrupted)
    assert main(["extremal", "--h", "2", "--k", "3"]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_scan_resume_refuses_another_box(tmp_path, capsys):
    out = tmp_path / "k3.jsonl"
    assert main(["scan", "--k", "3", "--ak-max", "12", "--out", str(out)]) == 0
    finished = out.read_bytes()
    capsys.readouterr()
    code = main(["scan", "--k", "4", "--ak-max", "12", "--out", str(out), "--resume"])
    assert code == 2
    assert "refusing to resume" in capsys.readouterr().err
    assert out.read_bytes() == finished


def test_scan_resume_refuses_a_summary_its_records_do_not_match(tmp_path, capsys):
    out = tmp_path / "k4.jsonl"
    args = ["scan", "--k", "4", "--ak-max", "280", "--out", str(out)]
    assert main(args) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    assert lines[-1] == b'{"summary":{"scanned":139,"counterexamples":0}}\n'
    tampered = b"".join(lines[:-1]) + b'{"summary":{"scanned":999,"counterexamples":7}}\n'
    out.write_bytes(tampered)
    capsys.readouterr()
    assert main(args + ["--resume"]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {out} holds 139 records with 0 counterexamples, but its summary "
        'says {"scanned":999,"counterexamples":7}; refusing to resume\n',
    )
    assert out.read_bytes() == tampered


def _die_on_1_6_15_20_21(basis):
    """Scan evaluator that kills its worker process on one basis."""
    if basis.elements == (1, 6, 15, 20, 21):
        os._exit(1)
    return _REAL_EVALUATE(basis)


def test_dead_scan_worker_exits_1_and_resumes(tmp_path, monkeypatch, capsys):
    args = ["scan", "--k", "5", "--ak-max", "30", "--threads", "2", "--out"]
    reference = tmp_path / "reference.jsonl"
    assert main(args + [str(reference)]) == 0

    out = tmp_path / "died.jsonl"
    monkeypatch.setattr(search, "_evaluate", _die_on_1_6_15_20_21)
    capsys.readouterr()
    assert main(args + [str(out)]) == 1
    assert capsys.readouterr().err == "error: a scan worker died (rerun with --resume)\n"
    monkeypatch.setattr(search, "_evaluate", _REAL_EVALUATE)

    assert b'"summary"' not in out.read_bytes()
    assert main(args + [str(out), "--resume"]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_sigkilled_scan_resumes_to_identical_bytes(tmp_path, k9_top40_scan):
    reference = tmp_path / "reference.jsonl"
    reference.write_bytes(k9_top40_scan[0])

    out = tmp_path / "killed.jsonl"
    proc = subprocess.Popen(
        [*STAMPCOVER, "scan", "--k", "9", "--ak-max", "40", "--out", str(out)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=child_env(),
    )
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and b"\n" in out.read_bytes()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    killed = out.read_bytes()
    assert b'"summary"' not in killed

    assert main(["scan", "--k", "9", "--ak-max", "40", "--out", str(out), "--resume"]) == 5
    assert out.read_bytes() == reference.read_bytes()
    assert len(killed) < len(reference.read_bytes())


def test_scan_rejects_impossible_box(tmp_path, capsys):
    out = tmp_path / "na.jsonl"
    assert main(["scan", "--k", "5", "--ak-max", "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: ak_max 3 cannot fit 5 increasing elements\n")


def test_scan_has_no_cap_option(tmp_path, capsys):
    # each record depends on its basis alone; a larger cap is analyze --cap's
    out = tmp_path / "capped.jsonl"
    args = ["scan", "--h-cap", "5", "--k", "3", "--ak-max", "8", "--out", str(out)]
    assert main(args) == 2
    assert "unrecognized arguments: --h-cap 5" in capsys.readouterr().err
    assert not out.exists()


# ---------- extremal ----------


def test_extremal_table(capsys):
    code = main(["extremal", "--h", "3", "--k", "3", "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n_star = 15  (h=3, k=3, top <= 8)"
    assert out[1:] == ["  1,4,5"]


# ---------- batch input ----------


def test_basis_file_emits_jsonl_in_order(tmp_path, capsys):
    batch = tmp_path / "bases.txt"
    batch.write_text(
        "# three bases, one per line\n"
        "1,3,6,10\n"
        "\n"
        f"{A9_TEXT}  # the smallest known counterexample\n"
        "1,2\n",
        encoding="utf-8",
    )
    code = main(["cover", "--basis-file", str(batch), "--h", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [p["basis"] for p in payloads] == ["1,3,6,10", A9_TEXT, "1,2"]
    assert [p["cover"] for p in payloads] == [4, 6, 4]


def test_analyze_basis_file_exit_4_if_any_h1_missing(tmp_path, capsys):
    batch = tmp_path / "bases.txt"
    batch.write_text("1,2\n1,3,6,10\n", encoding="utf-8")
    code = main(["analyze", "--basis-file", str(batch), "--cap", "6"])
    assert code == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["h1"] == 2
    assert json.loads(lines[1])["h1"] is None


def test_basis_file_with_a_byte_order_mark_or_crlf_lines(tmp_path, capsys):
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf1,3,5\n1,2\n")
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"1,3,5\r\n# a comment\r\n1,2\r\n")
    for batch in (bom, crlf):
        assert main(["cover", "--basis-file", str(batch), "--h", "2"]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (
            '{"basis":"1,3,5","h":2,"cover":6}\n{"basis":"1,2","h":2,"cover":4}\n',
            "",
        )


def test_basis_file_error_names_the_line(tmp_path, capsys):
    batch = tmp_path / "bad.txt"
    batch.write_text("1,3\n2,4\n", encoding="utf-8")
    assert main(["cover", "--basis-file", str(batch), "--h", "2"]) == 2
    assert ":2:" in capsys.readouterr().err


def test_basis_file_parse_errors_keep_their_class_and_line(tmp_path, capsys):
    batch = tmp_path / "bad.txt"
    batch.write_text("1,3\n# a comment\n1,3,0\n", encoding="utf-8")
    assert main(["analyze", "--basis-file", str(batch)]) == 2
    assert capsys.readouterr() == (
        "", f"error: NonPositiveError: {batch}:3: element 0 is not positive\n"
    )


def test_basis_file_bytes_that_are_not_utf8_name_their_line(tmp_path, capsys):
    batch = tmp_path / "latin.txt"
    batch.write_bytes(b"1,3\n1,3,\xff\n")
    for argv in (["analyze"], ["cover", "--h", "2"]):
        assert main([*argv, "--basis-file", str(batch)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: InvalidBasisError: {batch}:2: ")
    # in a comment, such a byte is dropped with the rest of the comment
    batch.write_bytes(b"1,2,3 # \xff\n")
    assert main(["analyze", "--basis-file", str(batch)]) == 0
    assert capsys.readouterr().out.startswith('{"basis":"1,2,3",')


def test_basis_file_64_bit_element_names_its_line(tmp_path, capsys):
    # refused while parsing, with the exit code of a limit, not of bad input
    batch = tmp_path / "wide.txt"
    batch.write_text("1,2\n1,18446744073709551616\n", encoding="utf-8")
    assert main(["cover", "--basis-file", str(batch), "--h", "2"]) == 3
    assert capsys.readouterr() == (
        "",
        f"error: OverflowLimitError: {batch}:2: element 18446744073709551616"
        " does not fit in 64 bits\n",
    )


def test_basis_file_errors_past_parsing_name_the_line(tmp_path, capsys):
    # line 4 holds h0 = 4 and a sweep the default cap sizes at 320000002 entries
    batch = tmp_path / "bases.txt"
    batch.write_text("1,3,5\n# a comment\n\n1,3,10\n1,3,4999999,5000000\n", encoding="utf-8")
    assert main(["analyze", "--basis-file", str(batch), "--cap", "3"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1
    assert err == f"error: {batch}:4: cap 3 is below the admissibility threshold 4\n"
    batch.write_text("1,3,5\n1,3,4999999,5000000\n", encoding="utf-8")
    assert main(["analyze", "--basis-file", str(batch)]) == 3
    message = "cover sweep would need 320000002 entries, limit is 16777216"
    assert capsys.readouterr().err == f"error: OverflowLimitError: {batch}:2: {message}\n"
    assert main(["cover", "--basis-file", str(batch), "--h", "8", "--profile"]) == 3
    assert capsys.readouterr().err == (
        f"error: OverflowLimitError: {batch}:2: cover sweep would need 40000002 entries,"
        " limit is 16777216\n"
    )


def test_basis_file_must_not_be_empty(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("# nothing here\n", encoding="utf-8")
    assert main(["cover", "--basis-file", str(batch), "--h", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: InvalidBasisError: {batch}: no bases found\n")


def test_missing_basis_file_is_invalid_input(capsys):
    assert main(["cover", "--basis-file", "/nonexistent/x.txt", "--h", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: '/nonexistent/x.txt'\n"
    )


# ---------- golden bytes ----------

# Every output format of every answering command, stdout and exit code
# byte for byte, with nothing on stderr. A basis file always gives JSONL,
# whatever --format says; with no --format, stdout that is not a terminal
# gets JSON. tools/cli_diff.py replays these rows and ERRORS on two trees.
GOLDEN_BASES = "1,3,5\n# a comment\n\n1,4,5\n1,3,5,8,20,23,25,27,28\n"

GOLDEN = [
    (
        "cover --basis 1,3,6,10 --h 3 --format table",
        0,
        '23\n',
    ),
    (
        "cover --basis 1,4,5 --h 5 --profile --format table",
        0,
        (
            'basis = 1,4,5\n'
            'h=1 cover=1\n'
            'h=2 cover=2\n'
            'h=3 cover=15  saturated\n'
            'h=4 cover=20  saturated\n'
            'h=5 cover=25  saturated\n'
        ),
    ),
    (
        "cover --basis 1,2 --h 3 --profile --format table",
        0,
        (
            'basis = 1,2\n'
            'h=1 cover=2  saturated\n'
            'h=2 cover=4  saturated\n'
            'h=3 cover=6  saturated\n'
        ),
    ),
    (
        "analyze --basis 1,3,5,8,20,23,25,27,28 --format table",
        0,
        (
            'basis            = 1,3,5,8,20,23,25,27,28\n'
            'k                = 9\n'
            'symmetric        = true\n'
            'h0               = 3\n'
            'h1               = 4\n'
            'h1_found         = true\n'
            'theorem_bound    = 4\n'
            'conjecture_holds = false\n'
            'counterexample   = true\n'
        ),
    ),
    (
        "analyze --basis 1,3,6,10 --cap 5 --format table",
        4,
        (
            'basis            = 1,3,6,10\n'
            'k                = 4\n'
            'symmetric        = false\n'
            'h0               = 3\n'
            'h1               = not found within cap 5\n'
            'h1_found         = false\n'
            'theorem_bound    = 4\n'
            'conjecture_holds = false\n'
            'counterexample   = false\n'
        ),
    ),
    (
        "analyze --basis 1,2,3 --format table",
        0,
        (
            'basis            = 1,2,3\n'
            'k                = 3\n'
            'symmetric        = true\n'
            'h0               = 2\n'
            'h1               = 2\n'
            'h1_found         = true\n'
            'theorem_bound    = 2\n'
            'conjecture_holds = true\n'
            'counterexample   = false\n'
        ),
    ),
    (
        "family --kind a9 --p 3 --format table",
        0,
        '1,3,5,8,20,23,25,27,28\n',
    ),
    (
        "family --kind a10 --p 5 --format table",
        0,
        '1,5,7,12,47,82,87,89,93,94\n',
    ),
    (
        "extremal --h 3 --k 3 --format table",
        0,
        (
            'n_star = 15  (h=3, k=3, top <= 8)\n'
            '  1,4,5\n'
        ),
    ),
    (
        "cover --basis 1,3 --h 2",
        0,
        (
            '{\n'
            '  "basis": "1,3",\n'
            '  "h": 2,\n'
            '  "cover": 4\n'
            '}\n'
        ),
    ),
    # at the edge of a size rule: a paired basis at h = 10^7, and the
    # basis {1} at h = 2 * 10^7 as a cover and as an extremal box, each
    # swept only to the budget it saturates by
    (
        "cover --basis 1,2 --h 10000000",
        0,
        (
            '{\n'
            '  "basis": "1,2",\n'
            '  "h": 10000000,\n'
            '  "cover": 20000000\n'
            '}\n'
        ),
    ),
    (
        "cover --basis 1 --h 20000000",
        0,
        (
            '{\n'
            '  "basis": "1",\n'
            '  "h": 20000000,\n'
            '  "cover": 20000000\n'
            '}\n'
        ),
    ),
    (
        "extremal --h 20000000 --k 1",
        0,
        (
            '{\n'
            '  "h": 20000000,\n'
            '  "k": 1,\n'
            '  "ak_ceiling": 1,\n'
            '  "n_star": 20000000,\n'
            '  "witnesses": [\n'
            '    "1"\n'
            '  ]\n'
            '}\n'
        ),
    ),
    # paired bases whose sweep the reflection ceiling sigma* cuts: at
    # sigma* = h0 = 122 no budget is swept; the second is swept to
    # sigma* = 5, below its cap 6
    (
        "analyze --basis 1,123,166,167",
        0,
        (
            '{\n'
            '  "basis": "1,123,166,167",\n'
            '  "k": 4,\n'
            '  "symmetric": false,\n'
            '  "h0": 122,\n'
            '  "h1": 122,\n'
            '  "h1_found": true,\n'
            '  "theorem_bound": 242,\n'
            '  "conjecture_holds": true,\n'
            '  "counterexample": false\n'
            '}\n'
        ),
    ),
    (
        "analyze --basis 1,2,7,8 --cap 6",
        0,
        (
            '{\n'
            '  "basis": "1,2,7,8",\n'
            '  "k": 4,\n'
            '  "symmetric": false,\n'
            '  "h0": 3,\n'
            '  "h1": 5,\n'
            '  "h1_found": true,\n'
            '  "theorem_bound": 4,\n'
            '  "conjecture_holds": false,\n'
            '  "counterexample": false\n'
            '}\n'
        ),
    ),
    # a budget-1 cover certified on a table over the head run 1..10,
    # which ends in a gap
    (
        "cover --basis 1,2,3,4,5,6,7,8,9,10,40 --h 1",
        0,
        (
            '{\n'
            '  "basis": "1,2,3,4,5,6,7,8,9,10,40",\n'
            '  "h": 1,\n'
            '  "cover": 10\n'
            '}\n'
        ),
    ),
    (
        "cover --basis 1,3,6,10 --h 3 --format json",
        0,
        (
            '{\n'
            '  "basis": "1,3,6,10",\n'
            '  "h": 3,\n'
            '  "cover": 23\n'
            '}\n'
        ),
    ),
    (
        "cover --basis 1,4,5 --h 5 --profile --format json",
        0,
        (
            '{\n'
            '  "basis": "1,4,5",\n'
            '  "h_max": 5,\n'
            '  "rows": [\n'
            '    {\n'
            '      "h": 1,\n'
            '      "cover": 1,\n'
            '      "saturated": false\n'
            '    },\n'
            '    {\n'
            '      "h": 2,\n'
            '      "cover": 2,\n'
            '      "saturated": false\n'
            '    },\n'
            '    {\n'
            '      "h": 3,\n'
            '      "cover": 15,\n'
            '      "saturated": true\n'
            '    },\n'
            '    {\n'
            '      "h": 4,\n'
            '      "cover": 20,\n'
            '      "saturated": true\n'
            '    },\n'
            '    {\n'
            '      "h": 5,\n'
            '      "cover": 25,\n'
            '      "saturated": true\n'
            '    }\n'
            '  ]\n'
            '}\n'
        ),
    ),
    (
        "analyze --basis 1,3,5,8,20,23,25,27,28 --format json",
        0,
        (
            '{\n'
            '  "basis": "1,3,5,8,20,23,25,27,28",\n'
            '  "k": 9,\n'
            '  "symmetric": true,\n'
            '  "h0": 3,\n'
            '  "h1": 4,\n'
            '  "h1_found": true,\n'
            '  "theorem_bound": 4,\n'
            '  "conjecture_holds": false,\n'
            '  "counterexample": true\n'
            '}\n'
        ),
    ),
    (
        "analyze --basis 1,3,6,10 --cap 5 --format json",
        4,
        (
            '{\n'
            '  "basis": "1,3,6,10",\n'
            '  "k": 4,\n'
            '  "symmetric": false,\n'
            '  "h0": 3,\n'
            '  "h1": null,\n'
            '  "h1_found": false,\n'
            '  "theorem_bound": 4,\n'
            '  "conjecture_holds": false,\n'
            '  "counterexample": false\n'
            '}\n'
        ),
    ),
    (
        "family --kind a9 --p 3 --format json",
        0,
        (
            '{\n'
            '  "kind": "a9",\n'
            '  "p": 3,\n'
            '  "basis": "1,3,5,8,20,23,25,27,28",\n'
            '  "k": 9\n'
            '}\n'
        ),
    ),
    (
        "extremal --h 3 --k 3 --format json",
        0,
        (
            '{\n'
            '  "h": 3,\n'
            '  "k": 3,\n'
            '  "ak_ceiling": 8,\n'
            '  "n_star": 15,\n'
            '  "witnesses": [\n'
            '    "1,4,5"\n'
            '  ]\n'
            '}\n'
        ),
    ),
    (
        "cover --basis 1,3,6,10 --h 3 --format jsonl",
        0,
        '{"basis":"1,3,6,10","h":3,"cover":23}\n',
    ),
    (
        "cover --basis 1,4,5 --h 5 --profile --format jsonl",
        0,
        (
            '{"basis":"1,4,5","h_max":5,"rows":[{"h":1,"cover":1,"saturated":false},{"h":2,"cover":2,"saturated":false},{"h":3,"cover":15,"saturated":true},{"h":4,"cover":20,"saturated":true},{"h":5,"cover":25,"saturated":true}]}\n'
        ),
    ),
    (
        "cover --basis 1,3,6,10 --h 3 --profile --format jsonl",
        0,
        '{"basis":"1,3,6,10","h_max":3,"rows":[{"h":1,"cover":1,"saturated":false},{"h":2,"cover":4,"saturated":false},{"h":3,"cover":23,"saturated":false}]}\n',
    ),
    (
        "analyze --basis 1,3,5,8,20,23,25,27,28 --format jsonl",
        0,
        (
            '{"basis":"1,3,5,8,20,23,25,27,28","k":9,"symmetric":true,"h0":3,"h1":4,"h1_found":true,"theorem_bound":4,"conjecture_holds":false,"counterexample":true}\n'
        ),
    ),
    (
        "analyze --basis 1,3,6,10 --cap 5 --format jsonl",
        4,
        (
            '{"basis":"1,3,6,10","k":4,"symmetric":false,"h0":3,"h1":null,"h1_found":false,"theorem_bound":4,"conjecture_holds":false,"counterexample":false}\n'
        ),
    ),
    (
        "family --kind a9 --p 3 --format jsonl",
        0,
        '{"kind":"a9","p":3,"basis":"1,3,5,8,20,23,25,27,28","k":9}\n',
    ),
    (
        "family --kind a5 --p 3 --format jsonl",
        0,
        '{"kind":"a5","p":3,"basis":"1,3,5,8,20","k":5}\n',
    ),
    (
        "extremal --h 3 --k 3 --format jsonl",
        0,
        '{"h":3,"k":3,"ak_ceiling":8,"n_star":15,"witnesses":["1,4,5"]}\n',
    ),
    (
        "extremal --h 2 --k 2 --format jsonl",
        0,
        '{"h":2,"k":2,"ak_ceiling":3,"n_star":4,"witnesses":["1,2","1,3"]}\n',
    ),
    (
        "cover --basis-file BASES --h 3 --format table",
        0,
        (
            '{"basis":"1,3,5","h":3,"cover":11}\n'
            '{"basis":"1,4,5","h":3,"cover":15}\n'
            '{"basis":"1,3,5,8,20,23,25,27,28","h":3,"cover":41}\n'
        ),
    ),
    (
        "cover --basis-file BASES --h 4 --profile --format json",
        0,
        (
            '{"basis":"1,3,5","h_max":4,"rows":[{"h":1,"cover":1,"saturated":false},{"h":2,"cover":6,"saturated":false},{"h":3,"cover":11,"saturated":false},{"h":4,"cover":16,"saturated":false}]}\n'
            '{"basis":"1,4,5","h_max":4,"rows":[{"h":1,"cover":1,"saturated":false},{"h":2,"cover":2,"saturated":false},{"h":3,"cover":15,"saturated":true},{"h":4,"cover":20,"saturated":true}]}\n'
            '{"basis":"1,3,5,8,20,23,25,27,28","h_max":4,"rows":[{"h":1,"cover":1,"saturated":false},{"h":2,"cover":6,"saturated":false},{"h":3,"cover":41,"saturated":false},{"h":4,"cover":112,"saturated":true}]}\n'
        ),
    ),
    (
        "analyze --basis-file BASES --format table",
        4,
        (
            '{"basis":"1,3,5","k":3,"symmetric":false,"h0":2,"h1":null,"h1_found":false,"theorem_bound":2,"conjecture_holds":false,"counterexample":false}\n'
            '{"basis":"1,4,5","k":3,"symmetric":true,"h0":3,"h1":3,"h1_found":true,"theorem_bound":4,"conjecture_holds":true,"counterexample":false}\n'
            '{"basis":"1,3,5,8,20,23,25,27,28","k":9,"symmetric":true,"h0":3,"h1":4,"h1_found":true,"theorem_bound":4,"conjecture_holds":false,"counterexample":true}\n'
        ),
    ),
    (
        "analyze --basis-file BASES --cap 3",
        4,
        (
            '{"basis":"1,3,5","k":3,"symmetric":false,"h0":2,"h1":null,"h1_found":false,"theorem_bound":2,"conjecture_holds":false,"counterexample":false}\n'
            '{"basis":"1,4,5","k":3,"symmetric":true,"h0":3,"h1":3,"h1_found":true,"theorem_bound":4,"conjecture_holds":true,"counterexample":false}\n'
            '{"basis":"1,3,5,8,20,23,25,27,28","k":9,"symmetric":true,"h0":3,"h1":null,"h1_found":false,"theorem_bound":4,"conjecture_holds":false,"counterexample":true}\n'
        ),
    ),
]


@pytest.mark.parametrize(("args", "code", "out"), GOLDEN, ids=[c[0] for c in GOLDEN])
def test_golden_output(args, code, out, tmp_path, capsys):
    batch = tmp_path / "bases.txt"
    batch.write_text(GOLDEN_BASES, encoding="utf-8")
    argv = [str(batch) if arg == "BASES" else arg for arg in args.split()]
    assert main(argv) == code
    assert capsys.readouterr() == (out, "")


def test_answers_reach_stdout_only_through_emit(tmp_path, monkeypatch, capsys):
    batch = tmp_path / "bases.txt"
    batch.write_text(GOLDEN_BASES, encoding="utf-8")
    emitted = []

    def record(payload, fmt, lines):
        emitted.append(list(lines))

    monkeypatch.setattr(cli, "_emit", record)
    for args, _, _ in GOLDEN:
        main([str(batch) if arg == "BASES" else arg for arg in args.split()])
    assert capsys.readouterr().out == ""
    assert len(emitted) == len(GOLDEN) + 8  # each basis file holds three bases
    assert all(lines and all(isinstance(line, str) for line in lines)
               for lines in emitted)


# ---------- refusals and argument errors ----------

# Each refusal of input that argparse accepts: exit code and stderr byte
# for byte, with nothing on stdout. Argparse's own usage errors are tested
# below, since their text wraps with the terminal's width.
ERRORS = [
    ("cover --basis 2,3 --h 2", 2,
     "error: NotStartingAtOneError: smallest element must be 1, got 2\n"),
    ("cover --basis 1,abc --h 2", 2, "error: InvalidBasisError: 'abc' is not an integer\n"),
    ("cover --basis 1,3,3 --h 2", 2,
     "error: NotIncreasingError: elements must be strictly increasing (3 then 3)\n"),
    ("analyze --basis 1,3,0", 2, "error: NonPositiveError: element 0 is not positive\n"),
    # the element 2^63 parses, and its sweep is refused by its size (exit 3)
    ("cover --basis 1,9223372036854775808 --h 2", 3,
     "error: OverflowLimitError: cover sweep would need 18446744073709551618 entries,"
     " limit is 16777216\n"),
    ("analyze --basis 1,3,6,10 --cap 2", 2,
     "error: cap 2 is below the admissibility threshold 3\n"),
    ("analyze --basis 1,3,10 --cap 3", 2,
     "error: cap 3 is below the admissibility threshold 4\n"),
    # refused at the default cap before any table is built
    ("analyze --basis 1,3,4999999,5000000", 3,
     "error: OverflowLimitError: cover sweep would need 320000002 entries,"
     " limit is 16777216\n"),
    # an unpaired basis never saturates, so its sweep at h = 10^7 is sized by h
    ("cover --basis 1,3 --h 10000000", 3,
     "error: OverflowLimitError: cover sweep would need 30000002 entries,"
     " limit is 16777216\n"),
    # a given cap judged against h0 = 3334 after one table: 3333 is invalid
    # input, and the sweep 3334 asks for is refused by its size
    ("analyze --basis 1,3,9999,10000 --cap 3333", 2,
     "error: cap 3333 is below the admissibility threshold 3334\n"),
    ("analyze --basis 1,3,9999,10000 --cap 3334", 3,
     "error: OverflowLimitError: cover sweep would need 33340002 entries,"
     " limit is 16777216\n"),
    # a profile is refused by its rows before the first one is printed
    ("cover --basis 1 --h 1000000000000 --profile", 3,
     "error: OverflowLimitError: cover profile would need 1000000000000 rows,"
     " limit is 16777216\n"),
    ("family --kind a9 --p 4", 2, "error: BadParameterError: p must be odd, got 4\n"),
    ("family --kind a10 --p 3", 2, "error: BadParameterError: p must be at least 5, got 3\n"),
    # the refusal names the box asked for, not a level below it
    ("extremal --h 9 --k 9", 6, "error: TooLargeError: h=9, k=9: more than 100000 prefixes\n"),
    # a search deeper than the recursion limit
    ("extremal --h 2 --k 1100", 6,
     "error: TooLargeError: h=2, k=1100: more than 100000 prefixes\n"),
    ("extremal --h 3000 --k 2", 3,
     "error: OverflowLimitError: levels would need 27018009002 bits, limit is 1073741824\n"),
    # refused by its size before any prefix
    ("extremal --h 300 --k 3", 3,
     "error: OverflowLimitError: levels would need 4104225902 bits, limit is 1073741824\n"),
]


@pytest.mark.parametrize(("args", "code", "err"), ERRORS, ids=[c[0] for c in ERRORS])
def test_error_output(args, code, err, capsys):
    assert main(args.split()) == code
    assert capsys.readouterr() == ("", err)


def test_argparse_usage_errors_exit_2(capsys):
    assert main(["cover", "--basis", "1,3"]) == 2  # --h missing
    assert main(["cover", "--basis", "1,3", "--h", "0"]) == 2
    assert main(["cover", "--basis", "1,3", "--h", "x"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_integer_options_read_only_ascii_digits(capsys):
    # int() alone would read 1_0 as 10, +3 and the Arabic-Indic three as 3
    for text in ["1_0", "+3", "\u0663", " 3"]:
        assert main(["cover", "--basis", "1,3", "--h", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: stampcover cover ")
        assert err.endswith(f"\nstampcover cover: error: argument --h: {text!r} is not an integer\n")
    assert main(["cover", "--basis", "1,3", "--h", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["cover"] == 28


def test_basis_and_basis_file_are_exclusive(tmp_path, capsys):
    batch = tmp_path / "b.txt"
    batch.write_text("1,2\n", encoding="utf-8")
    code = main(
        ["cover", "--basis", "1,2", "--basis-file", str(batch), "--h", "2"]
    )
    assert code == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------- styling ----------


def test_no_color_disables_ansi(monkeypatch):
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    def run() -> str:
        monkeypatch.setattr(sys, "stdout", FakeTty())
        assert main(["analyze", "--basis", A9_TEXT]) == 0  # a terminal gets a table
        return sys.stdout.getvalue()

    monkeypatch.delenv("NO_COLOR", raising=False)
    assert "counterexample   = \x1b[1;31mtrue\x1b[0m\n" in run()
    monkeypatch.setenv("NO_COLOR", "1")
    plain = run()
    assert "counterexample   = true\n" in plain
    assert "\x1b[" not in plain


def test_not_a_tty_means_no_ansi(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    main(["analyze", "--basis", A9_TEXT, "--format", "table"])
    assert "\x1b[" not in capsys.readouterr().out


# ---------- module entry point ----------


def test_python_dash_m_invocation():
    proc = run_child(*STAMPCOVER, "cover", "--basis", "1,3,6,10", "--h", "3", "--format", "table")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "23"


# Runs ``python -m stampcover ARGS`` in this interpreter, then prints to
# stderr which process-pool and dataclass modules the command left in
# sys.modules.
_UNUSED_MODULES_WRAPPER = """
import runpy, sys
sys.argv[0] = "stampcover"
try:
    runpy.run_module("stampcover", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
unused = ("multiprocessing", "concurrent.futures", "concurrent.futures.process",
          "dataclasses", "inspect")
print(f"exit={code} loaded={[m for m in unused if m in sys.modules]}", file=sys.stderr)
"""


def test_startup_does_not_import_the_process_pool():
    proc = run_child(
        sys.executable, "-c", _UNUSED_MODULES_WRAPPER, "family", "--kind", "a9", "--p", "3",
        "--format", "table",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == A9_TEXT + "\n"
    assert proc.stderr == "exit=0 loaded=[]\n"


# ---------- shutdown ----------


def test_module_run_freezes_the_heap_once_main_returns():
    wrapper = _UNUSED_MODULES_WRAPPER + (
        "import gc\nprint(f'frozen={gc.get_freeze_count() > 0}', file=sys.stderr)\n"
    )
    proc = run_child(
        sys.executable, "-c", wrapper, "family", "--kind", "a9", "--p", "3", "--format", "table"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == A9_TEXT + "\n"
    assert proc.stderr == "exit=0 loaded=[]\nfrozen=True\n"


def test_entry_freezes_the_heap_after_main_and_exits_with_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 4)
    # the real freeze would keep this test process's objects from the collector
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    assert calls == ["main", "freeze"]


def test_pooled_scan_command_leaves_no_worker_behind(tmp_path):
    reference = tmp_path / "serial.jsonl"
    search.run_scan(search.ScanSpec(k=9, ak_max=28), str(reference))
    out = tmp_path / "pooled.jsonl"
    with subprocess.Popen(
        [*STAMPCOVER, "scan", "--k", "9", "--ak-max", "28", "--threads", "2", "--out", str(out)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=child_env(),
        start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 5, err
    assert out.read_bytes() == reference.read_bytes()
    # the command led its own process group; a worker still in it is a leak
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    else:
        pytest.fail("a scan worker outlived the command")


def test_closed_stdout_exits_141_without_a_message():
    with subprocess.Popen(
        [*STAMPCOVER, "cover", "--basis", "1,3,16", "--h", "20000", "--profile",
         "--format", "table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        try:
            assert proc.stdout.readline() == b"basis = 1,3,16\n"
            proc.stdout.close()  # like `| head -1`
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_in_process_returns_141_and_leaks_no_descriptor(capsys, monkeypatch):
    before = len(os.listdir("/proc/self/fd"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the answer is written
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["cover", "--basis", "1,3", "--h", "2", "--format", "json"]) == 141
    assert capsys.readouterr().err == ""
    assert len(os.listdir("/proc/self/fd")) == before


def test_commands_run_without_a_stdout(tmp_path):
    # the shell's `>&-`: the child starts with no fd 1, so sys.stdout is None
    # without --format, and analyze's table, the command still looks at stdout
    out = tmp_path / "k3.jsonl"
    summary = "scanned=10 counterexamples=0 k=3 ak_max=12 mode=symmetric\n"
    for args, err in (
        (["scan", "--k", "3", "--ak-max", "12", "--out", str(out)], summary),
        (["cover", "--basis", "1,3", "--h", "2", "--format", "jsonl"], ""),
        (["cover", "--basis", "1,3", "--h", "2"], ""),
        (["family", "--kind", "a9", "--p", "3"], ""),
        (["extremal", "--h", "2", "--k", "3"], ""),
        (["analyze", "--basis", "1,3,4"], ""),
        (["analyze", "--basis", A9_TEXT, "--format", "table"], ""),
    ):
        proc = run_child("sh", "-c", 'exec "$0" "$@" >&-', *STAMPCOVER, *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", err), args
    assert out.read_bytes().endswith(b'{"summary":{"scanned":10,"counterexamples":0}}\n')
