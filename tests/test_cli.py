import argparse
import json
import math
import random
import re
from pathlib import Path

import pytest

from cycmax import cli
from cycmax.verify import SUITES, CheckResult

import oracles
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
        code, out, _ = run_cli(capsys, "analyze", "--format", "csv", ref_path)
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
        assert "majorizing_rotation" not in doc
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
        code, out, _ = run_cli(capsys, "analyze", "--format", "dot", ref_path)
        assert code == 0
        assert out.startswith("digraph")
        assert '"[9:18] a=2.26"' in out

    def test_rational_backend_matches(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "analyze", "--backend", "rational", "--format", "csv", ref_path)
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

    @pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
    def test_one_profile_pass_per_format(self, capsys, ref_path, monkeypatch, fmt):
        from cycmax import periodic

        # the pass itself, which ``right_maximal_profile`` runs once per tuple
        original = periodic._rising_sun
        calls = []

        def counted(x):
            calls.append(x.n)
            return original(x)

        monkeypatch.setattr(periodic, "_rising_sun", counted)
        code, _, _ = run_cli(capsys, "analyze", "--format", fmt, ref_path)
        assert code == 0
        assert calls == [10]

    def test_malformed_input_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and "error" in err
        code, _, _ = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 1


def _float_bits(doc):
    """The document with each float replaced by its exact hex spelling."""
    if isinstance(doc, float):
        return ("float", doc.hex())
    if isinstance(doc, dict):
        return {key: _float_bits(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_float_bits(value) for value in doc]
    return doc


def _seeded_values(seed, n):
    rng = random.Random(seed)
    return [rng.choice([rng.randint(1, 10**6), rng.uniform(0.1, 1e3)]) for _ in range(n)]


class TestAnalyzeJsonEncoding:
    """``analyze`` JSON parses to the document the standard encoder writes, bit for bit."""

    CASES = {
        **{f"seeded-{n}": _seeded_values(n, n) for n in (1, 2, 79, 416)},
        "degenerate": [2, 2, 2],
        "wide": [1e16, 3, 1],
        "near-1e300": [1e300, 2.5e300, 7e299, 1.3e300],
        "near-1e-300": [1e-300, 3e-300, 2e-300, 7.5e-301],
    }

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("case", CASES)
    def test_same_document_as_the_standard_encoder(self, capsys, tmp_path, backend, case):
        from cycmax.periodic import tuple_from_json
        from cycmax.structure import build_poset

        text = json.dumps({"values": self.CASES[case]})
        path = tmp_path / "x.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "analyze", "--backend", backend, str(path))
        assert code == 0
        x = tuple_from_json(text, backend)
        poset = build_poset(x)
        report = cli.analyze_report(x, poset, cli.analyze_warnings(poset))
        table = report["table"].tolist()
        assert _float_bits(table) == _float_bits(oracles.list_average_table(x))
        want = json.loads(json.dumps({**report, "table": table}))
        got = json.loads(out)
        assert _float_bits(got) == _float_bits(want)
        # orjson writes NaN as null, so every average must come back a float
        averages = [got["average"], *(cell for row in got["table"] for cell in row)]
        averages += [node["average"] for node in got["m_intervals"] + got["poset"]["nodes"]]
        assert all(isinstance(a, float) and math.isfinite(a) for a in averages)
        if case == "degenerate":
            assert got["poset"]["root"] is None and got["degenerate"]


class TestAnalyzeCsvCells:
    """``analyze --format csv`` prints the list-form table through ``format_cell``."""

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("n", [2, 79, 416])
    def test_rows_are_the_formatted_list_table(self, capsys, tmp_path, backend, n):
        from cycmax.periodic import tuple_from_json

        text = json.dumps({"values": _seeded_values(n, n)})
        path = tmp_path / "x.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "analyze", "--backend", backend, "--format", "csv", str(path))
        assert code == 0
        want = oracles.list_average_table(tuple_from_json(text, backend))
        rows = out.split("\n")[1:n]
        assert len(rows) == n - 1
        for r, line in enumerate(rows, start=1):
            label, *cells = line.split(",")
            assert label == str(r)
            assert [cell.rstrip("*") for cell in cells] == [cli.format_cell(v) for v in want[r - 1]]
        assert out.split("\n")[n].startswith("# average,")


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

    def test_sum_prints_a_k_past_64_bits_exactly(self, capsys, ref_path):
        # the reason sum keeps the json encoder: orjson rejects such an int
        code, out, _ = run_cli(capsys, "sum", ref_path, "--k", str(10**24))
        assert code == 0
        assert json.loads(out)["k"] == 10**24
        assert '"k": 1000000000000000000000000,' in out

    def test_sum_requires_exactly_one_mode(self, capsys, ref_path, tmp_path):
        code, _, _ = run_cli(capsys, "sum", ref_path)
        assert code == 1
        radii = tmp_path / "radii.json"
        radii.write_text(json.dumps({"radii": [1] * 10}))
        code, _, _ = run_cli(capsys, "sum", ref_path, "--radii", str(radii), "--k", "2")
        assert code == 1

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize("normalized", [(), ("--normalized",)])
    def test_sum_names_a_bad_k(self, capsys, ref_path, k, normalized):
        # the user gave k, not radii, so the error names k either way
        code, out, err = run_cli(capsys, "sum", ref_path, "--k", k, *normalized)
        assert (code, out, err) == (1, "", "error: k must be a positive integer\n")

    def test_sum_wrong_radii_length(self, capsys, ref_path, tmp_path):
        radii = tmp_path / "radii.json"
        radii.write_text(json.dumps({"radii": [1, 2]}))
        code, _, _ = run_cli(capsys, "sum", ref_path, "--radii", str(radii))
        assert code == 1

    @pytest.mark.parametrize("radii", ['"12"', "[1.7, 2.2]", "[true, 2]", '["1", "2"]'])
    def test_radii_file_holds_json_integers_only(self, capsys, tmp_path, radii):
        pair = tmp_path / "pair.json"
        pair.write_text('{"values": [1, 2]}')
        path = tmp_path / "radii.json"
        path.write_text('{"radii": %s}' % radii)
        code, out, err = run_cli(capsys, "sum", str(pair), "--radii", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: malformed radii file {path}: ")

    def test_maxsum(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, "maxsum", ref_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["radii"] == [2, 1, 5, 4, 3, 2, 1, 10, 1, 8]
        assert doc["value"] == pytest.approx(8.413545512623653, rel=1e-12)


    def test_maxsum_rejects_overflowing_entries(self, capsys, tmp_path):
        # the prefix sums overflow, which once made the value 0.0 instead of 2
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"values": [1e308, 1e308]}))
        code, out, err = run_cli(capsys, "maxsum", str(path))
        assert code == 1 and out == ""
        assert "overflow" in err


class TestUnderflowingAverages:
    """On [5e-324, 0, 0] the float averages 5e-324 / 3 round to 0.0; any
    float average below the normal range is rejected."""

    UNDERFLOW = "is below the normal float range (the rational backend reads it exactly)\n"

    @pytest.fixture
    def tiny_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"values": [5e-324, 0, 0]}))
        return str(path)

    @pytest.mark.parametrize("command", [["maxsum"], ["analyze"], ["analyze", "--format", "csv"], ["analyze", "--format", "dot"]])
    def test_maximal_average(self, capsys, tiny_path, command):
        code, out, err = run_cli(capsys, *command, tiny_path)
        assert (code, out, err) == (1, "", "error: a right maximal value " + self.UNDERFLOW)
        code, out, err = run_cli(capsys, *command, tiny_path, "--backend", "rational")
        assert code == 0 and err == ""

    def test_maxsum_reads_it_on_the_rational_backend(self, capsys, tiny_path):
        code, out, _ = run_cli(capsys, "maxsum", tiny_path, "--backend", "rational")
        assert (code, json.loads(out)) == (0, {"value": 3.0, "radii": [3, 2, 1]})

    def test_sum_tells_underflow_from_a_zero_sum(self, capsys, tiny_path):
        code, out, err = run_cli(capsys, "sum", tiny_path, "--k", "3")
        assert (code, out) == (1, "")
        assert err == "error: the average of the window of length 3 after index 1 " + self.UNDERFLOW
        code, out, err = run_cli(capsys, "sum", tiny_path, "--k", "1")
        assert (code, out, err) == (1, "", "error: window of length 1 after index 1 sums to zero\n")
        code, out, _ = run_cli(capsys, "sum", tiny_path, "--k", "3", "--backend", "rational")
        assert (code, json.loads(out)["value"]) == (0, 3.0)

    def test_maxsum_rejects_an_average_that_keeps_a_few_bits(self, capsys, tmp_path):
        # 1e-322 / 7 keeps 5 bits, which once made maxsum 6.666666666666667
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"values": [1e-322] + [0] * 6}))
        code, out, err = run_cli(capsys, "maxsum", str(path))
        assert (code, out, err) == (1, "", "error: a right maximal value " + self.UNDERFLOW)
        code, out, _ = run_cli(capsys, "maxsum", str(path), "--backend", "rational")
        assert (code, json.loads(out)) == (0, {"value": 7.0, "radii": [7, 6, 5, 4, 3, 2, 1]})


class TestOverflowingSum:
    """On [1e300, 1e-300] the sum with radius 1 is about 1e600."""

    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_sum_exits_1_with_one_error_line(self, capsys, tmp_path, backend):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"values": [1e300, 1e-300]}))
        code, out, err = run_cli(capsys, "sum", str(path), "--k", "1", "--backend", backend)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1
        if backend == "float":
            assert err == "error: the sum exceeds the float range (the rational backend sums it exactly)\n"


class TestEntriesPastTheFloatRange:
    """A tuple holding 10**400: the float backend rejects it when parsed,
    and a rational result that no float can hold is an input error."""

    @pytest.fixture
    def huge_path(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"values": [10**400, 1, 2, 3]}))
        return str(path)

    COMMANDS = [
        pytest.param(("analyze", "--format", "json"), id="format-json-analyze"),
        pytest.param(("analyze", "--format", "csv"), id="format-csv-analyze"),
        pytest.param(("analyze", "--format", "dot"), id="format-dot-analyze"),
        ("sum", "--k", "2"),
        ("sum", "--k", "2", "--normalized"),
    ]

    def assert_one_error_line(self, code, out, err):
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "float range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a).lstrip("-"))
    def test_exits_1_with_one_error_line(self, capsys, huge_path, backend, argv):
        command, *flags = argv
        self.assert_one_error_line(*run_cli(capsys, command, "--backend", backend, *flags, huge_path))

    def test_float_maxsum_rejects_the_entry(self, capsys, huge_path):
        self.assert_one_error_line(*run_cli(capsys, "maxsum", "--backend", "float", huge_path))

    def test_rational_maxsum_still_works(self, capsys, huge_path):
        code, out, _ = run_cli(capsys, "maxsum", "--backend", "rational", huge_path)
        assert code == 0
        assert json.loads(out) == {"value": 4.0, "radii": [4, 3, 2, 1]}


class TestFlagSlots:
    """Each subcommand accepts only the flags it reads, and only after its name."""

    FLAGS = {"--backend": "rational", "--format": "csv", "--seed": "3", "--tol": "1e-9"}
    READS = {
        "analyze": {"--backend", "--format"},
        "sum": {"--backend"},
        "maxsum": {"--backend"},
        "minimize": set(),
        "sweep": set(),
        "verify": {"--seed"},
    }

    @staticmethod
    def argv(command, ref_path):
        operands = {
            "analyze": [ref_path],
            "sum": [ref_path, "--k", "2"],
            "maxsum": [ref_path],
            "minimize": ["--n", "3"],
            "sweep": ["--from", "1", "--to", "3", "--points", "2"],
            "verify": ["--suite", "rotation"],
        }
        return [command, *operands[command]]

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    @pytest.mark.parametrize("command", sorted(READS))
    def test_after_the_subcommand(self, capsys, ref_path, command, flag):
        command_argv = self.argv(command, ref_path)
        code, out, err = run_cli(capsys, *command_argv, flag, self.FLAGS[flag])
        if flag in self.READS[command]:
            assert code == 0 and out and not err
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: unrecognized arguments: " + flag)

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    def test_before_the_subcommand_exits_1(self, capsys, ref_path, flag):
        code, out, err = run_cli(capsys, flag, self.FLAGS[flag], *self.argv("maxsum", ref_path))
        assert code == 1 and out == "" and err.startswith("error: ")


# Bad input of every kind, by subcommand.  The placeholders name what the
# test passes: "{dir}" a directory, "{ref}" the reference tuple, "{radii}"
# radii that fit it, "{zero}" a tuple holding "1/0", "{digits}" one holding
# a 5000-digit integer literal, "{nested}" arrays nested 100000 deep, and
# "{latin1}" a radii file not in UTF-8.
BAD_INPUT = {
    "analyze-directory": ["analyze", "{dir}"],
    "sum-radii-directory": ["sum", "{ref}", "--radii", "{dir}"],
    "sum-radii-not-utf-8": ["sum", "{ref}", "--radii", "{latin1}"],
    "analyze-zero-denominator": ["analyze", "{zero}"],
    "analyze-5000-digits": ["analyze", "{digits}"],
    "analyze-nested": ["analyze", "{nested}"],
    "analyze-rational-exponent-literal": ["analyze", "--backend", "rational", "{exponent}"],
    "analyze-exponent-string": ["analyze", "{exponent_string}"],
    "sum-radii-nested": ["sum", "{ref}", "--radii", "{nested}"],
    "analyze-array-entry": ["analyze", "{array_entry}"],
    "analyze-rational-array-entry": ["analyze", "--backend", "rational", "{array_entry}"],
    "analyze-null-entry": ["analyze", "{null_entry}"],
    "analyze-rational-null-entry": ["analyze", "--backend", "rational", "{null_entry}"],
    "analyze-object-entry": ["analyze", "{object_entry}"],
    "analyze-rational-object-entry": ["analyze", "--backend", "rational", "{object_entry}"],
    "verify-negative-seed": ["verify", "--seed", "-1"],
    "verify-unknown-suite": ["verify", "--suite", "bogus"],
    "minimize-n-0": ["minimize", "--n", "0"],
    "minimize-n-1e400": ["minimize", "--n", "1e400"],
    "minimize-p-0": ["minimize", "--p", "0"],
    "minimize-p-nan": ["minimize", "--p", "nan"],
    "minimize-p-1e-320": ["minimize", "--p", "1e-320"],
    "minimize-neither": ["minimize"],
    "minimize-both": ["minimize", "--n", "2", "--p", "0.5"],
    "sum-k-0": ["sum", "{ref}", "--k", "0"],
    "sum-neither": ["sum", "{ref}"],
    "sum-both": ["sum", "{ref}", "--radii", "{radii}", "--k", "2"],
    "sweep-points-0": ["sweep", "--from", "1", "--to", "3", "--points", "0"],
    "sweep-to-inf": ["sweep", "--from", "1000", "--to", "inf", "--points", "3"],
    "sweep-estimate-a-too-few": ["sweep", "--from", "10", "--to", "60", "--points", "4", "--estimate-a"],
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_1_with_one_error_line(capsys, tmp_path, ref_path, case):
    files = {"dir": tmp_path, "ref": ref_path}
    for name, contents in [
        ("zero", b'{"values": ["1/0"]}'),
        ("digits", b'{"values": [%s]}' % (b"7" * 5000)),
        ("nested", b"[" * 10**5 + b"]" * 10**5),
        ("exponent", b'{"values": [1e-1000000, 1]}'),
        ("exponent_string", b'{"values": ["1e-1000000", 1]}'),
        ("array_entry", b'{"values": [[1], 2]}'),
        ("null_entry", b'{"values": [null, 1]}'),
        ("object_entry", b'{"values": [{"a": 1}, 1]}'),
        ("radii", json.dumps({"radii": [1] * len(REFERENCE)}).encode()),
        ("latin1", b'{"radii": [1], "note": "caf\xe9"}'),
    ]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_bytes(contents)
    code, out, err = run_cli(capsys, *(arg.format(**files) for arg in BAD_INPUT[case]))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def documented_exit_codes(text):
    """The code-to-meaning pairs of the sentence that starts with 'Exit codes:'."""
    sentence = " ".join(text.split("Exit codes:", 1)[1].split(".", 1)[0].split())
    return {int(code): meaning for code, meaning in re.findall(r"`?(\d+)`? ([^,]+)", sentence)}


def test_exit_codes_match_the_readme_and_the_module_docstring():
    declared = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = documented_exit_codes(readme)
    assert set(documented) == declared
    assert documented_exit_codes(cli.__doc__) == documented


def test_readme_flag_table_matches_the_parser():
    """The README command-line table lists exactly the flags each subcommand declares."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {
        row.group(1): set(re.findall(r"--[a-z][a-z-]*", row.group(2)))
        for row in re.finditer(r"^\| `(\w+)`\s*\|(.*)\|$", section, re.MULTILINE)
    }
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    declared = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == declared


class TestParserReuse:
    """``main`` builds the parser once per process and each call reads its own arguments."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_call_prints_what_it_prints_alone(self, capsys):
        calls = [
            ("verify", "--suite", "rotation", "--points", "3"),  # a flag verify does not read
            ("verify", "--suite", "rotation", "--suite", "poset"),
            ("verify", "--suite", "rotation"),
        ]
        in_turn = [run_cli(capsys, *argv) for argv in calls]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        assert in_turn == alone
        assert [code for code, _, _ in in_turn] == [1, 0, 0]
        # the repeatable --suite starts empty on every call
        assert "PASS poset." in in_turn[1][1] and in_turn[2][1].endswith("1/1 checks passed\n")


class TestBooleanEntries:
    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_maxsum_rejects_booleans(self, capsys, tmp_path, backend):
        path = tmp_path / "bool.json"
        path.write_text('{"values": [true, 2, false]}')
        code, out, err = run_cli(capsys, "maxsum", "--backend", backend, str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "true" in err


class TestMinimize:
    def test_by_n_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "3", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2 * math.sqrt(3) - 1, rel=1e-9)
        assert doc["support"] == 2
        assert doc["oracle_gap"] is not None and doc["oracle_gap"] <= 1e-4
        assert "converged" not in doc

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

    @pytest.mark.parametrize("p", ["1e-320", "5e-324", "inf", "nan", "0"])
    def test_rejects_a_price_whose_inverse_overflows(self, capsys, p):
        # 1/p is inf for a subnormal p; ceil(1/p) used to raise OverflowError
        code, out, err = run_cli(capsys, "minimize", "--p", p)
        assert code == 1 and out == ""
        assert err.startswith("error: p ") and err.count("\n") == 1

    def test_rejects_an_n_too_large_for_a_float(self, capsys):
        code, out, err = run_cli(capsys, "minimize", "--n", "1" + "0" * 400)
        assert code == 1 and out == ""
        assert err.startswith("error: n is too large") and err.count("\n") == 1

    def test_oracle_refused_for_large_n(self, capsys):
        assert run_cli(capsys, "minimize", "--n", "6", "--oracle")[0] == 1

    @pytest.mark.parametrize("exponent, support", [(10, 24), (15, 35), (30, 70), (100, 231), (300, 691)])
    def test_far_range_is_certified(self, capsys, exponent, support):
        # n written out in full; the absolute residual's rounding floor of
        # about eps/p puts it above 1e-10 at 1e10, and it is only reported
        code, out, err = run_cli(capsys, "minimize", "--n", str(10**exponent))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["support"] == support and "converged" not in doc
        if exponent == 10:
            assert doc["residual"] > 1e-10

    def test_uncertified_root_raises(self, capsys, moved_roots):
        # a bug, not bad input: a traceback, not an error line or an exit code
        with pytest.raises(RuntimeError, match="backward error"):
            cli.main(["minimize", "--n", "1000"])
        assert capsys.readouterr() == ("", "")


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

    def test_estimate_a_with_too_few_points_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--from", "10", "--to", "60", "--points", "4", "--estimate-a"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "at least four records" in err

    def test_empty_range_exits_1(self, capsys):
        assert run_cli(capsys, "sweep", "--from", "5", "--to", "3", "--points", "2")[0] == 1
        assert run_cli(capsys, "sweep", "--from", "1", "--to", "3", "--points", "0")[0] == 1

    @pytest.mark.parametrize("stop", ["1e400", "inf", "nan"])
    def test_infinite_range_exits_1(self, capsys, stop):
        code, out, err = run_cli(capsys, "sweep", "--from", "1000", "--to", stop, "--points", "3")
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_too_many_points_exits_1(self, capsys):
        # rejected before any grid is allocated
        code, out, err = run_cli(capsys, "sweep", "--from", "1e3", "--to", "1e6", "--points", "1000000000")
        assert code == 1 and out == "" and err.startswith("error: points must lie in 1..")


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rotation", "--seed", "42")
        assert code == 0
        assert "PASS rotation.unique-majorizing-rotation" in out
        assert out.strip().endswith("1/1 checks passed")

    def test_a_suite_named_twice_runs_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gradient", "--suite", "rotation", "--suite", "gradient")
        assert code == 0
        assert [line.split(".")[0] for line in out.splitlines()[:-1]] == ["PASS gradient", "PASS rotation"]
        assert out.endswith("\n2/2 checks passed\n")

    def test_unknown_suite_exits_1(self, capsys):
        # run_suites names it: the parser declares no fixed list of suites
        code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 1 and out == ""
        assert err == "error: unknown suite(s): bogus\n"

    @pytest.mark.parametrize("suite", ["reduced", "reduction"])
    def test_uncertified_solve_fails_its_check(self, capsys, moved_roots, suite):
        # the suite stops at the solve that raises, before it prints a line
        with pytest.raises(RuntimeError, match="backward error"):
            cli.main(["verify", "--suite", suite])
        assert capsys.readouterr() == ("", "")

    def test_failure_exits_3(self, capsys, monkeypatch):
        def failing(rng):
            return [CheckResult("demo", "always-fails", False, "forced")]

        monkeypatch.setitem(SUITES, "demo", failing)
        code, out, _ = run_cli(capsys, "verify", "--suite", "demo")
        assert code == 3
        assert "FAIL demo.always-fails" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, ref_path):
        import os
        import pathlib
        import subprocess
        import sys

        import cycmax

        # the child finds the package the tests import, installed or not
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cycmax.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "cycmax", "maxsum", ref_path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["radii"] == [2, 1, 5, 4, 3, 2, 1, 10, 1, 8]

    @pytest.mark.parametrize("command", ["analyze", "minimize"])
    def test_closed_stdout_exits_1_without_a_traceback(self, command, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        import cycmax

        # analyze fails inside its print (a 200 x 200 table outgrows the
        # buffer), minimize (non-convergent at 1e10) in the flush after the
        # JSON that its error handler prints
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"values": [1.0 + (i * 7919 % 1000) / 1000 for i in range(200)]}))
        argv = {"analyze": ["analyze", str(path), "--format", "csv"], "minimize": ["minimize", "--n", "10000000000"]}
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cycmax.__file__).parents[1])}
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cycmax", *argv[command]], stdout=write, stderr=subprocess.PIPE, text=True, env=env
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_solver_refuses_a_long_double_without_a_64_bit_mantissa(self, ref_path):
        import os
        import pathlib
        import subprocess
        import sys

        import cycmax

        # numpy.longdouble is plain float64 on some platforms; there a solve
        # exits 1 with one error line, and commands that use no long double run
        child = "import sys, numpy; numpy.longdouble = numpy.float64; from cycmax.cli import main; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cycmax.__file__).parents[1])}
        for n in ("1000", "1" + "0" * 30):
            proc = subprocess.run(
                [sys.executable, "-c", child, "minimize", "--n", n], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 1 and proc.stdout == "", n
            (line,) = proc.stderr.splitlines()
            assert line.startswith("error: ") and "64-bit mantissa" in line, line
        proc = subprocess.run([sys.executable, "-c", child, "analyze", ref_path], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import cycmax

        assert len(set(cycmax.__all__)) == len(cycmax.__all__)
        for name in cycmax.__all__:
            assert getattr(cycmax, name) is not None, name

    def test_analyze_example_script(self):
        import os
        import pathlib
        import subprocess
        import sys

        import cycmax

        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "analyze_example.py"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cycmax.__file__).parents[1])}
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "majorizing rotation starts at 9; strict prefix domination: True" in proc.stdout


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
