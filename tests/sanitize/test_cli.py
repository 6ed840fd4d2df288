"""The analyzer CLI's kernel reporters and exit codes."""

import json

from repro.analysis.cli import main

BAD_KERNEL = '''\
from repro.jit import cuda


@cuda.jit
def unguarded(x, out):
    i = cuda.grid(1)
    out[i] = x[i * 4]
'''

CLEAN_KERNEL = '''\
from repro.jit import cuda


@cuda.jit
def saxpy(a, x, y, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = a * x[i] + y[i]
'''


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN_KERNEL)
        assert main([str(path)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_KERNEL)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "SAN-OOB" in out and "SAN-UNCOALESCED" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unparsable_file_is_a_finding_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "SAN-SYNTAX" in out and f"{path}:1" in out

    def test_errors_only_ignores_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.py"
        # only an uncoalesced-access warning: the index is guarded
        path.write_text('''\
from repro.jit import cuda


@cuda.jit
def strided(x, out):
    i = cuda.grid(1)
    if i < out.size:
        out[i] = x[i * 4]
''')
        assert main([str(path)]) == 1
        capsys.readouterr()
        assert main([str(path), "--errors-only"]) == 0


class TestReporters:
    def test_text_report_carries_file_line(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_KERNEL)
        main([str(path)])
        out = capsys.readouterr().out
        assert f"{path}:7:" in out

    def test_json_report_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(BAD_KERNEL)
        main([str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["total"] == len(payload["findings"])
        rules = {f["rule"] for f in payload["findings"]}
        assert "SAN-OOB" in rules
        for f in payload["findings"]:
            assert set(f) >= {"rule", "severity", "message", "file",
                              "line", "hint"}

    def test_directory_argument_recurses(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(BAD_KERNEL)
        assert main([str(tmp_path)]) == 1
        assert "bad.py:7" in capsys.readouterr().out

