import json
import math

import pytest

from cycmax import cli
from cycmax.verify import SUITES, CheckResult

from golden_table import (
    CHAIN_UNDER_ROOT,
    MAXIMAL_CELLS,
    PRINTED_TABLE,
    REFERENCE_PARENTS,
    SHORT_PRINTED_CELLS,
    agrees_at_printed_precision,
)

REFERENCE = [1.2, 2.3, 3.5, 1.8, 1.6, 2.4, 3, 3.2, 1.1, 2.5]


@pytest.fixture
def ref_path(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"values": REFERENCE}))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    cells = {}
    marks = set()
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        fields = line.split(",")
        r = int(fields[0])
        for i, cell in enumerate(fields[1:], start=1):
            if cell.endswith("*"):
                marks.add((r, i))
                cell = cell[:-1]
            cells[(r, i)] = cell
    comments = [line for line in lines if line.startswith("#")]
    return header, cells, marks, comments


class TestAnalyzeGolden:
    def test_table_cells_match_publication_at_printed_precision(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "--format", "csv", "analyze", ref_path)
        assert code == 0
        header, cells, marks, comments = parse_table_csv(out)
        assert header == ["r\\i", "1", "2", "3", "4", "5", "6", "7", "8", "9*", "10"]
        for r in range(1, 10):
            for i in range(1, 11):
                printed = PRINTED_TABLE[r - 1][i - 1]
                assert agrees_at_printed_precision(float(cells[(r, i)]), printed), (r, i)
                if (r, i) in SHORT_PRINTED_CELLS:
                    assert cells[(r, i)] == SHORT_PRINTED_CELLS[(r, i)]
                else:
                    assert cells[(r, i)] == printed, (r, i)
        assert marks == MAXIMAL_CELLS
        assert "# average,2.26" in comments
        assert "# full_maximal_start,9" in comments
        assert "# m_interval,9,[9:18],2.26" in comments

    def test_json_report_structure(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "analyze", ref_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 10
        assert doc["average"] == pytest.approx(2.26)
        assert doc["full_maximal_start"] == 9
        assert doc["majorizing_rotation"] == 9
        assert not doc["degenerate"]
        poset = doc["poset"]
        assert poset["root"] == 9
        parent_map = {c: p for c, p in poset["edges"]}
        for child, parent in REFERENCE_PARENTS.items():
            if parent is not None:
                assert parent_map[child] == parent
        # walk the long chain from the deepest singleton to the root
        chain = [8]
        while chain[-1] in parent_map:
            chain.append(parent_map[chain[-1]])
        assert chain == CHAIN_UNDER_ROOT

    def test_dot_output(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "--format", "dot", "analyze", ref_path)
        assert code == 0
        assert out.startswith("digraph")
        assert '"[9:18] a=2.26"' in out

    def test_rational_backend_matches(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "--backend", "rational", "--format", "csv", "analyze", ref_path)
        assert code == 0
        _, cells, marks, _ = parse_table_csv(out)
        assert marks == MAXIMAL_CELLS
        assert cells[(9, 4)] == "2.122"

    def test_degenerate_input_warns_but_succeeds(self, capsys, tmp_path):
        path = tmp_path / "const.json"
        path.write_text(json.dumps({"values": [2, 2, 2]}))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "degenerate" in err
        assert json.loads(out)["degenerate"]

    def test_malformed_input_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and "error" in err
        code, _, _ = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 1


class TestSumCommands:
    def test_sum_with_radii_file(self, capsys, ref_path, tmp_path):
        radii = tmp_path / "radii.json"
        radii.write_text(json.dumps({"radii": [10] * 10}))
        code, out, _ = run_cli(capsys, "sum", ref_path, "--radii", str(radii))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(10.0, rel=1e-12)

    def test_sum_constant_radius_and_normalization(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "sum", ref_path, "--k", "2")
        plain = json.loads(out)["value"]
        code, out, _ = run_cli(capsys, "sum", ref_path, "--k", "2", "--normalized")
        assert json.loads(out)["value"] == pytest.approx(plain / 2.0, rel=1e-12)

    def test_sum_requires_exactly_one_mode(self, capsys, ref_path, tmp_path):
        code, _, _ = run_cli(capsys, "sum", ref_path)
        assert code == 1
        radii = tmp_path / "radii.json"
        radii.write_text(json.dumps({"radii": [1] * 10}))
        code, _, _ = run_cli(capsys, "sum", ref_path, "--radii", str(radii), "--k", "2")
        assert code == 1

    def test_sum_wrong_radii_length(self, capsys, ref_path, tmp_path):
        radii = tmp_path / "radii.json"
        radii.write_text(json.dumps({"radii": [1, 2]}))
        code, _, _ = run_cli(capsys, "sum", ref_path, "--radii", str(radii))
        assert code == 1

    def test_maxsum(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "maxsum", ref_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["radii"] == [2, 1, 5, 4, 3, 2, 1, 10, 1, 8]
        assert doc["value"] == pytest.approx(8.413545512623653, rel=1e-12)


class TestMinimize:
    def test_by_n_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "3", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2 * math.sqrt(3) - 1, rel=1e-9)
        assert doc["support"] == 2
        assert doc["oracle_gap"] is not None and doc["oracle_gap"] <= 1e-4

    def test_by_price_one(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--p", "1.0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0)

    def test_large_n_prints_only_the_support(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "100000")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == doc["support"] < 20
        assert sum(doc["entries"]) == pytest.approx(1.0, abs=1e-12)
        assert len(out) < 2000

    def test_requires_exactly_one_of_n_p(self, capsys):
        assert run_cli(capsys, "minimize")[0] == 1
        assert run_cli(capsys, "minimize", "--n", "2", "--p", "0.5")[0] == 1

    def test_oracle_refused_for_large_n(self, capsys):
        assert run_cli(capsys, "minimize", "--n", "6", "--oracle")[0] == 1

    def test_nonconvergence_exits_2(self, capsys, monkeypatch):
        from cycmax.errors import NonConvergence

        def explode(N, p, cfg=None):
            raise NonConvergence("forced", best=None)

        monkeypatch.setattr(cli, "minimize_chain", explode)
        code, _, err = run_cli(capsys, "minimize", "--n", "3")
        assert code == 2 and "forced" in err


class TestSweep:
    def test_small_range_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--from", "1", "--to", "3", "--points", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,s_star,deficit,support,residual"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == pytest.approx([1.0, 2 * math.sqrt(2) - 1, 2 * math.sqrt(3) - 1], rel=1e-9)

    def test_estimate_a_appends_comment(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--from", "100", "--to", "2000", "--points", "6", "--estimate-a"
        )
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("# a_hat,")

    def test_empty_range_exits_1(self, capsys):
        assert run_cli(capsys, "sweep", "--from", "5", "--to", "3", "--points", "2")[0] == 1
        assert run_cli(capsys, "sweep", "--from", "1", "--to", "3", "--points", "0")[0] == 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rotation", "--seed", "42")
        assert code == 0
        assert "PASS rotation.unique-majorizing-rotation" in out
        assert out.strip().endswith("1/1 checks passed")

    def test_unknown_suite_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 1

    def test_failure_exits_3(self, capsys, monkeypatch):
        def failing(rng):
            return [CheckResult("demo", "always-fails", False, "forced")]

        monkeypatch.setitem(SUITES, "demo", failing)
        code, out, _ = run_cli(capsys, "verify", "--suite", "demo")
        assert code == 3
        assert "FAIL demo.always-fails" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, ref_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "cycmax", "maxsum", ref_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["radii"] == [2, 1, 5, 4, 3, 2, 1, 10, 1, 8]


class TestDeterminism:
    def test_analyze_byte_identical(self, capsys, ref_path):
        _, out1, _ = run_cli(capsys, "analyze", ref_path)
        _, out2, _ = run_cli(capsys, "analyze", ref_path)
        assert out1 == out2

    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "periodic", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "periodic", "--seed", "7")
        assert out1 == out2

    def test_sweep_byte_identical(self, capsys):
        args = ("sweep", "--from", "10", "--to", "60", "--points", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
