import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden
from metamatrix import cli, engine, typeb
from metamatrix.cli import main
from metamatrix.engine import Metamatrix, NTable
from metamatrix.typeb import metamatrix_typeb
from references import scm_count


@pytest.fixture
def runner():
    return CliRunner()


def matrix_of(json_text):
    return [[int(x) for x in row] for row in json.loads(json_text)["matrix"]]


class TestParseErrors:
    """Parse errors are argparse's: a usage line and the message on stderr,
    exit 2; help exits 0."""

    @pytest.mark.parametrize(
        "args",
        [[], ["no-such-command"], ["compute", "--family", "B", "--rank", "2", "--format", "xml"]],
        ids=["no-command", "unknown-command", "bad-format"],
    )
    def test_usage_and_exit_2(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr.startswith("usage: metamatrix")

    @pytest.mark.parametrize("args", [["--help"], ["compute", "--help"]], ids=["main", "compute"])
    def test_help_exits_0(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stdout.startswith("usage: metamatrix")


class TestCompute:
    def test_b2_formula_csv(self, runner):
        res = runner.invoke(main, ["compute", "--family", "B", "--rank", "2", "--format", "csv"])
        assert res.exit_code == 0
        assert res.output.splitlines() == ["8,8,1", "8,10,2", "1,2,1"]

    def test_i2_closed_form_beyond_matrix_realization(self, runner):
        res = runner.invoke(
            main, ["compute", "--family", "I2", "--m", "7", "--format", "csv"]
        )
        assert res.exit_code == 0
        assert res.output.splitlines() == ["14,14,1", "14,16,2", "1,2,1"]

    def test_i2_requires_m(self, runner):
        res = runner.invoke(main, ["compute", "--family", "I2"])
        assert res.exit_code == 2

    def test_i2_rejects_other_rank(self, runner):
        res = runner.invoke(main, ["compute", "--family", "I2", "--m", "5", "--rank", "7"])
        assert res.exit_code == 2
        assert (res.stdout, res.stderr) == ("", "Error: family I2 has rank 2, not 7\n")

    def test_m_only_for_i2(self, runner):
        res = runner.invoke(main, ["compute", "--family", "A", "--rank", "3", "--m", "4"])
        assert res.exit_code == 2
        assert (res.stdout, res.stderr) == ("", "Error: --m applies only to family I2\n")

    def test_unknown_family(self, runner):
        res = runner.invoke(main, ["compute", "--family", "Q", "--rank", "3"])
        assert res.exit_code == 2

    def test_formula_unavailable_for_h(self, runner):
        res = runner.invoke(
            main, ["compute", "--family", "H", "--rank", "3", "--method", "formula"]
        )
        assert res.exit_code == 2
        assert (
            "--method formula does not apply to H3; use --method enumerate or oracle"
            in res.stderr
        )

    @pytest.mark.parametrize("family,rank", [("H", "5"), ("A", "9")])
    def test_formula_outside_catalog_lists_catalog(self, runner, family, rank):
        # no other method applies either, so no --method hint
        res = runner.invoke(
            main, ["compute", "--family", family, "--rank", rank, "--method", "formula"]
        )
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            f"Error: unsupported Coxeter system family='{family}' rank={rank} m=None; "
            "supported: A1-A8, B1-B8, D4-D8, I2(m) for m in {2,3,4,5,6}, H3, H4, F4, E6, E7, E8"
        ]

    @pytest.mark.parametrize("method", ["enumerate", "oracle"])
    def test_matrix_methods_unavailable_for_b9(self, runner, tmp_path, method):
        res = runner.invoke(
            main,
            ["compute", "--family", "B", "--rank", "9", "--method", method,
             "--cache-dir", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert f"--method {method} does not apply to B9; use --method formula" in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["enumerate", "oracle"])
    def test_matrix_methods_unavailable_for_i2_7(self, runner, tmp_path, method):
        res = runner.invoke(
            main,
            ["compute", "--family", "I2", "--m", "7", "--method", method,
             "--cache-dir", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert f"--method {method} does not apply to I2m7; use --method formula" in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_enumerate_json(self, runner, tmp_path):
        res = runner.invoke(
            main,
            [
                "compute", "--family", "B", "--rank", "3",
                "--method", "enumerate", "--format", "json",
                "--cache-dir", str(tmp_path),
            ],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["pipeline"] == "enumeration"
        entries = [[int(x) for x in row] for row in payload["matrix"]]
        assert entries == [list(r) for r in metamatrix_typeb(3).entries]
        assert (tmp_path / "B3.ntable.json").exists()

    def test_h3_enumerate_pretty(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["compute", "--family", "H", "--rank", "3", "--cache-dir", str(tmp_path)],
        )
        assert res.exit_code == 0
        grid = [[int(x) for x in line.split()] for line in res.output.splitlines()]
        assert grid == golden.H3

    def test_oracle_small_group(self, runner):
        res = runner.invoke(
            main,
            ["compute", "--family", "A", "--rank", "2", "--method", "oracle", "--format", "csv"],
        )
        assert res.exit_code == 0
        assert res.output.splitlines() == ["6,6,1", "6,8,2", "1,2,1"]

    def test_oracle_limit(self, runner):
        res = runner.invoke(
            main, ["compute", "--family", "B", "--rank", "7", "--method", "oracle"]
        )
        assert res.exit_code == 3

    def test_oracle_h4_golden(self, runner):
        res = runner.invoke(
            main, ["compute", "--family", "H", "--rank", "4", "--method", "oracle", "--format", "json"]
        )
        assert res.exit_code == 0
        assert matrix_of(res.output) == golden.H4


class TestCache:
    def args(self, cache):
        return [
            "compute", "--family", "B", "--rank", "3",
            "--method", "enumerate", "--format", "json", "--cache-dir", str(cache),
        ]

    # not the B3 table, but it has the N-table invariants of a group of order 48
    FAKE = NTable(n=3, counts=((1, 0, 0, 0), (0, 23, 0, 0), (0, 0, 23, 0), (0, 0, 0, 1)))

    def write_entry(self, cache, table, **changes):
        payload = cli._ntable_payload("B", 3, None, 48, table)
        payload.update(changes)
        payload["checksum"] = cli._checksum(payload)
        (cache / "B3.ntable.json").write_text(json.dumps(payload))

    def test_cache_hit_is_used(self, runner, tmp_path):
        self.write_entry(tmp_path, self.FAKE)
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        served = matrix_of(res.output)
        assert served == [list(r) for r in engine.metamatrix_from_ntable(self.FAKE).entries]
        assert served != [list(r) for r in metamatrix_typeb(3).entries]

    def test_cached_table_failing_invariants_recomputed(self, runner, tmp_path):
        fake = NTable(n=3, counts=((0,) * 4,) * 3 + ((0, 0, 0, 7),))
        self.write_entry(tmp_path, fake)
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.output) == [list(r) for r in metamatrix_typeb(3).entries]

    @pytest.mark.parametrize(
        "version", [None, engine.ENGINE_VERSION - 1, str(engine.ENGINE_VERSION)]
    )
    def test_other_engine_version_recomputed(self, runner, tmp_path, version):
        self.write_entry(tmp_path, self.FAKE, engine_version=version)
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.output) == [list(r) for r in metamatrix_typeb(3).entries]
        rewritten = json.loads((tmp_path / "B3.ntable.json").read_text())
        assert rewritten["engine_version"] == engine.ENGINE_VERSION

    def test_corrupt_cache_recomputed(self, runner, tmp_path):
        path = tmp_path / "B3.ntable.json"
        path.write_text("{not json")
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.output) == [list(r) for r in metamatrix_typeb(3).entries]
        restored = json.loads(path.read_text())
        assert restored["checksum"] == cli._checksum(restored)

    def test_bad_checksum_recomputed(self, runner, tmp_path):
        fake = NTable(n=3, counts=((0,) * 4,) * 3 + ((0, 0, 0, 7),))
        payload = cli._ntable_payload("B", 3, None, 48, fake)
        payload["checksum"] = "0" * 64
        (tmp_path / "B3.ntable.json").write_text(json.dumps(payload))
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.output) == [list(r) for r in metamatrix_typeb(3).entries]

    @pytest.mark.parametrize(
        "args",
        [["compute", "--method", "enumerate"], ["verify"], ["ntable"]],
        ids=["compute", "verify", "ntable"],
    )
    def test_nothing_written_without_cache_dir(self, runner, tmp_path, monkeypatch, args):
        home, cwd = tmp_path / "home", tmp_path / "cwd"
        home.mkdir()
        cwd.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(cwd)
        res = runner.invoke(main, args + ["--family", "B", "--rank", "3"])
        assert res.exit_code == 0
        assert res.stderr == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cwd", "home"]


class TestCheckTp:
    def test_positive_grid(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("2 1\n1 1\n")
        res = runner.invoke(main, ["check-tp", str(src)])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["verdict"] == "totally-positive"
        assert payload["witness"] is None

    def test_negative_grid_witness(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("1 2\n3 4\n")
        res = runner.invoke(main, ["check-tp", str(src)])
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["verdict"] == "not-totally-positive"
        assert payload["witness"] == {"rows": [0, 1], "cols": [0, 1], "minor": "-2"}

    def test_stdin(self, runner):
        res = runner.invoke(main, ["check-tp", "-"], input="2 1\n1 1\n")
        assert res.exit_code == 0

    def test_json_round_trip(self, runner, tmp_path):
        res = runner.invoke(
            main, ["compute", "--family", "B", "--rank", "4", "--format", "json"]
        )
        src = tmp_path / "b4.json"
        src.write_text(res.output)
        res = runner.invoke(main, ["check-tp", str(src)])
        assert res.exit_code == 0

    def test_rational_entries(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("2/3 1/3\n1/3 1/3\n")
        assert runner.invoke(main, ["check-tp", str(src)]).exit_code == 0

    def test_ragged_grid_diagnostic(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("1 2\n3\n")
        res = runner.invoke(main, ["check-tp", str(src)])
        assert res.exit_code == 2
        assert "line 2" in res.output

    def test_bad_token_diagnostic(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("1 x\n3 4\n")
        res = runner.invoke(main, ["check-tp", str(src)])
        assert res.exit_code == 2
        assert "line 1, column 2" in res.output

    def test_non_square_rejected(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("1 2 3\n4 5 6\n")
        assert runner.invoke(main, ["check-tp", str(src)]).exit_code == 2

    def test_missing_file(self, runner):
        assert runner.invoke(main, ["check-tp", "/nonexistent/m.txt"]).exit_code == 2

    def test_perturbed_table_deterministic_witness(self, runner, tmp_path):
        grid = [row[:] for row in golden.E7]
        grid[3][4] = -grid[3][4]
        src = tmp_path / "e7.txt"
        src.write_text("\n".join(" ".join(str(x) for x in row) for row in grid))
        first = runner.invoke(main, ["check-tp", str(src)])
        second = runner.invoke(main, ["check-tp", str(src)])
        assert first.exit_code == second.exit_code == 1
        assert first.output == second.output

    def test_fekete_method_selected(self, runner, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("2 1\n1 1\n")
        res = runner.invoke(main, ["check-tp", str(src), "--method", "fekete"])
        assert json.loads(res.output)["method"] == "fekete"

    def test_auto_runs_fekete(self, runner):
        # a 9x9 table, which auto once scanned by all minors (48,619 of them)
        res = runner.invoke(main, ["check-tp", "-"], input=json.dumps(golden.E8))
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert (payload["method"], payload["minors_checked"]) == ("fekete", 285)


def certificate(verdict, method, checked, witness=None):
    return {"verdict": verdict, "method": method, "minors_checked": checked, "witness": witness}


class TestCliNamesWhatItRan:
    """The results are plain data; the CLI prints the names of the pipeline
    and the certifier it chose."""

    @pytest.mark.parametrize(
        "spec", [["--family", "B", "--rank", "3"], ["--family", "I2", "--m", "5"]],
        ids=["B3", "I2m5"],
    )
    @pytest.mark.parametrize(
        "method,leg",
        [(None, "formula"), ("formula", "formula"), ("enumerate", "enumeration"),
         ("oracle", "oracle")],
    )
    def test_compute_json_names_the_leg(self, runner, spec, method, leg):
        args = ["compute", *spec, "--format", "json"]
        args += [] if method is None else ["--method", method]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["pipeline"] == leg

    POSITIVE = [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
    NEGATIVE = [[5, 2, 1], [2, 1, 1], [1, 1, 1]]
    ZERO_WINDOW = {"rows": [1, 2], "cols": [1, 2], "minor": "0"}

    @pytest.mark.parametrize(
        "matrix,method,code,payload",
        [
            (POSITIVE, "all-minors", 0, certificate("totally-positive", "all-minors", 19)),
            (POSITIVE, "fekete", 0, certificate("totally-positive", "fekete", 14)),
            (NEGATIVE, "all-minors", 1,
             certificate("not-totally-positive", "all-minors", 18, ZERO_WINDOW)),
            (NEGATIVE, "fekete", 1,
             certificate("not-totally-positive", "fekete", 13, ZERO_WINDOW)),
        ],
        ids=["positive-all-minors", "positive-fekete", "negative-all-minors", "negative-fekete"],
    )
    def test_check_tp_json(self, runner, matrix, method, code, payload):
        res = runner.invoke(main, ["check-tp", "-", "--method", method], input=json.dumps(matrix))
        assert res.exit_code == code
        assert res.stdout == json.dumps(payload, indent=2) + "\n"


# JSON number literals (RFC 8259): sign, integer part, optional fraction and
# exponent.  Each is also a valid Fraction literal, so it can be written as a
# JSON number, a JSON string or a grid token.
NUMBER_LITERALS = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac and '.' + frac}{exp}",
    st.sampled_from(["", "-"]),
    st.integers(0, 10**22).map(str),
    st.text(alphabet="0123456789", max_size=22),
    st.sampled_from(["", "e"]).flatmap(
        lambda e: st.just("") if not e else st.integers(-25, 25).map(lambda x: f"e{x}")
    ),
)
NUMBER_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(NUMBER_LITERALS, min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


class TestJsonNumbers:
    """check-tp reads a JSON number from its literal, not through a float."""

    def test_entry_beyond_float_precision(self, runner):
        # determinant 10^-20: totally positive, though 1.00000000000000000001
        # rounds to the float 1.0, whose determinant is 0
        res = runner.invoke(main, ["check-tp", "-"],
                            input="[[1.00000000000000000001, 1], [1, 1]]")
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["verdict"] == "totally-positive"

    def test_entry_beyond_float_range(self, runner):
        res = runner.invoke(main, ["check-tp", "-"], input="[[1e400]]")
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["verdict"] == "totally-positive"

    def test_parsed_exactly(self):
        from fractions import Fraction

        rows = cli._parse_matrix_text("[[0.1, 1e-400], [2.5E+3, 0.12345678901234567890123]]")
        assert rows == [[Fraction(1, 10), Fraction(1, 10**400)],
                        [2500, Fraction(12345678901234567890123, 10**23)]]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(matrix=NUMBER_MATRICES, method=st.sampled_from(["auto", "all-minors", "fekete"]))
    def test_numbers_strings_and_grid_agree(self, runner, matrix, method):
        texts = [
            "[" + ", ".join("[" + ", ".join(row) + "]" for row in matrix) + "]",
            json.dumps(matrix),
            "\n".join(" ".join(row) for row in matrix),
        ]
        results = [runner.invoke(main, ["check-tp", "-", "--method", method], input=text)
                   for text in texts]
        assert results[0].exit_code in (0, 1), results[0].output
        assert len({(res.exit_code, res.output) for res in results}) == 1


class TestVerify:
    def test_b3_all_legs_agree(self, runner, tmp_path):
        res = runner.invoke(
            main, ["verify", "--family", "B", "--rank", "3", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        assert "B3: enumeration = formula = oracle (all legs agree)" in res.output

    def test_i2_6(self, runner, tmp_path):
        res = runner.invoke(
            main, ["verify", "--family", "I2", "--m", "6", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        report = json.loads(res.output[: res.output.rindex("}") + 1])
        assert report["agree"] is True
        assert set(report["legs"]) == {"formula", "enumeration", "oracle"}

    def test_h4_has_oracle_leg(self, runner, tmp_path):
        res = runner.invoke(
            main, ["verify", "--family", "H", "--rank", "4", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        report = json.loads(res.output[: res.output.rindex("}") + 1])
        assert report["legs"] == ["enumeration", "oracle"]
        assert report["agree"] is True


    def test_i2_7_formula_only(self, runner, tmp_path):
        res = runner.invoke(
            main, ["verify", "--family", "I2", "--m", "7", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        report = json.loads(res.output[: res.output.rindex("}") + 1])
        assert report["legs"] == ["formula"]
        assert report["agree"] is None
        assert report["first_difference"] is None
        assert "I2m7: formula (one leg, nothing compared)" in res.output

    def test_b9_formula_beyond_catalog(self, runner, tmp_path):
        res = runner.invoke(
            main, ["verify", "--family", "B", "--rank", "9", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        report = json.loads(res.output[: res.output.rindex("}") + 1])
        assert report["legs"] == ["formula"]
        assert report["agree"] is None
        assert "B9: formula (one leg, nothing compared)" in res.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "ntable"])
    def test_unsupported_rank_lists_catalog(self, runner, tmp_path, command):
        res = runner.invoke(
            main, [command, "--family", "H", "--rank", "5", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.stderr.splitlines() == [
            "Error: unsupported Coxeter system family='H' rank=5 m=None; supported: "
            "A1-A8, B1-B8, D4-D8, I2(m) for m in {2,3,4,5,6}, H3, H4, F4, E6, E7, E8"
        ]

    def test_ntable_b9_lists_catalog(self, runner, tmp_path):
        res = runner.invoke(
            main, ["ntable", "--family", "B", "--rank", "9", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "Error: unsupported Coxeter system family='B' rank=9 m=None; supported: "
            "A1-A8, B1-B8, D4-D8, I2(m) for m in {2,3,4,5,6}, H3, H4, F4, E6, E7, E8"
        ]
        assert list(tmp_path.iterdir()) == []


E8_ORDER = 696729600


class TestE8Rule:
    """E8 is an ordinary system: every command computes and caches its
    N-table from an empty cache, and serves a cached one without computing."""

    # not the E8 table, but it has the N-table invariants of a group of order |E8|
    FAKE = NTable(
        n=8,
        counts=tuple(
            tuple({(0, 0): 1, (4, 4): E8_ORDER - 2, (8, 8): 1}.get((i, j), 0) for j in range(9))
            for i in range(9)
        ),
    )

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("the E8 N-table must not be computed here")

        monkeypatch.setattr(engine, "accumulate_ntable", refuse)

    def write_fake(self, cache):
        payload = cli._ntable_payload("E", 8, None, E8_ORDER, self.FAKE)
        (cache / "E8.ntable.json").write_text(json.dumps(payload))

    @pytest.mark.parametrize("command", ["compute", "ntable", "verify"])
    def test_computed_from_empty_cache(self, runner, tmp_path, command):
        args = [command, "--family", "E", "--rank", "8", "--cache-dir", str(tmp_path)]
        if command != "verify":
            args += ["--format", "json"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert [p.name for p in tmp_path.iterdir()] == ["E8.ntable.json"]
        if command == "compute":
            assert matrix_of(res.stdout) == golden.E8
        elif command == "ntable":
            payload = json.loads(res.stdout)
            assert payload["order"] == str(E8_ORDER)
            assert json.loads((tmp_path / "E8.ntable.json").read_text()) == payload
        else:
            report = json.loads(res.output[: res.output.rindex("}") + 1])
            assert report["legs"] == ["enumeration"]
            assert report["agree"] is None
            assert "E8: enumeration (one leg, nothing compared)" in res.stdout

    @pytest.mark.usefixtures("no_enumeration")
    def test_cached_table_served_without_flag(self, runner, tmp_path):
        self.write_fake(tmp_path)
        res = runner.invoke(
            main,
            ["compute", "--family", "E", "--rank", "8", "--format", "json",
             "--cache-dir", str(tmp_path)],
        )
        assert res.exit_code == 0
        assert matrix_of(res.stdout) == [
            list(r) for r in engine.metamatrix_from_ntable(self.FAKE).entries
        ]

    @pytest.mark.usefixtures("no_enumeration")
    def test_verify_runs_enumeration_from_cache(self, runner, tmp_path):
        self.write_fake(tmp_path)
        res = runner.invoke(
            main, ["verify", "--family", "E", "--rank", "8", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        report = json.loads(res.output[: res.output.rindex("}") + 1])
        assert report["legs"] == ["enumeration"]
        assert report["agree"] is None


class TestNtableCommand:
    def test_b3_payload(self, runner, tmp_path):
        res = runner.invoke(
            main, ["ntable", "--family", "B", "--rank", "3", "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["order"] == "48"
        assert payload["checksum"] == cli._checksum(payload)
        counts = [[int(x) for x in row] for row in payload["ntable"]]
        assert sum(map(sum, counts)) == 48


class TestScmCount:
    def test_scm(self, runner):
        res = runner.invoke(main, ["scm-count", "2", "1", "1"])
        assert res.exit_code == 0
        assert res.output.strip() == "10"

    def test_gscm(self, runner):
        res = runner.invoke(main, ["scm-count", "2", "1", "1", "--gscm"])
        assert res.output.strip() == "15"

    def test_any_n_from_the_closed_form(self, runner):
        res = runner.invoke(main, ["scm-count", "6", "1", "1"])
        assert res.exit_code == 0
        assert res.output == "197\n"

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_enumeration(self, runner, n):
        for p in range(n + 1):
            for q in range(n + 1):
                res = runner.invoke(main, ["scm-count", str(n), str(p), str(q)])
                assert res.exit_code == 0
                assert res.output == f"{scm_count(n, p, q)}\n", (n, p, q)

    def test_out_of_range(self, runner):
        assert runner.invoke(main, ["scm-count", "2", "3", "1"]).exit_code == 2


def run_cli(args: list[str], stdin: str = "", timeout: float = 120) -> subprocess.CompletedProcess:
    """`python -m metamatrix.cli ARGS` in a fresh interpreter on this source
    tree, so no earlier invocation has changed interpreter-wide settings;
    raises subprocess.TimeoutExpired after `timeout` seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "metamatrix.cli", *args], input=stdin,
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@contextmanager
def any_int_digits():
    """Lift the int/str digit limit in this process for the comparison."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestBigIntegers:
    """Output stays exact past Python's default 4,300-digit int/str limit."""

    def test_gscm_count_with_12636_digits(self):
        proc = run_cli(["scm-count", "--gscm", "3000", "3000", "3000"])
        assert proc.returncode == 0, proc.stderr
        [line] = proc.stdout.splitlines()
        assert len(line) == 12636
        with any_int_digits():
            assert line == str(math.comb(2 * 3000 * 3000 + 3000 + 3000 + 3000, 3000))

    def test_check_tp_reads_a_5001_digit_entry(self):
        with any_int_digits():
            big = str(10**5000)
        proc = run_cli(["check-tp", "-"], stdin=f"[[{big}]]")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "verdict": "totally-positive",
            "method": "fekete",
            "minors_checked": 1,
            "witness": None,
        }

    def test_check_tp_witness_with_5001_digits(self):
        with any_int_digits():
            big = str(10**5000)
        proc = run_cli(["check-tp", "-"], stdin=f"1 {big}\n1 1\n")
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["witness"]["minor"] == "-" + "9" * 5000


class TestInputErrors:
    @pytest.mark.parametrize(
        "text",
        ['{"matrix": []}', "[]", '{"matrix": 5}', '[["1/0"]]', "1/0 1\n1 1\n",
         "[" * 100000],
        ids=["empty-matrix-key", "empty-list", "scalar-matrix", "zero-denominator-json",
             "zero-denominator-grid", "deep-json-nesting"],
    )
    def test_check_tp_rejects(self, runner, text):
        res = runner.invoke(main, ["check-tp", "-"], input=text)
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        [line] = [ln for ln in res.output.splitlines() if "cannot read matrix:" in ln]
        assert line.startswith("Error: cannot read matrix: ")

    @pytest.mark.parametrize(
        "text,place",
        [("[[1e20000000]]", "row 1, column 1"), ('[["1E+2_0000000"]]', "row 1, column 1"),
         ("1 1\n1 -.5e-20000000\n", "line 2, column 2")],
        ids=["json-number", "json-string-signed-underscores", "grid-negative-exponent"],
    )
    def test_huge_exponent_refused_before_its_integer_is_built(self, text, place):
        # each names a 20,000,001-digit integer, which took 25 s to build;
        # run_cli raises TimeoutExpired after 10 s
        proc = run_cli(["check-tp", "-"], stdin=text, timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"Error: cannot read matrix: {place}: exponent beyond ±")

    @pytest.mark.parametrize(
        "text,message",
        [('[["1", 2], [3, "x"]]', "row 2, column 2: cannot parse 'x'"),
         ("1 1\n1/0 1\n", "line 2, column 1: zero denominator in '1/0'"),
         ('[[1, 1], ["1/0", 1]]', "row 2, column 1: zero denominator in '1/0'"),
         ("\n1 2 3\n4 5 6\n", "line 2: expected 2 entries (the matrix has 2 rows), got 3"),
         ("[[1, 2], [3]]", "row 2: expected 2 entries (the matrix has 2 rows), got 1"),
         ("1 1\n1 1e1001\n", "line 2, column 2: exponent beyond ±1000 in '1e1001'"),
         ("  \n", "the matrix has no rows"), ("[]", "the matrix has no rows")],
        ids=["json-token", "grid-zero-denominator", "json-zero-denominator",
             "grid-not-square", "json-not-square", "beyond-the-bound", "blank", "empty-list"],
    )
    def test_diagnostic_names_the_place(self, runner, text, message):
        res = runner.invoke(main, ["check-tp", "-"], input=text)
        assert res.exit_code == 2
        assert res.output == f"Error: cannot read matrix: {message}\n"

    @pytest.mark.parametrize(
        "token,text,message",
        [("1e" + "1" * 100_000, "1e" + "1" * 100_000 + "\n",
          "line 1, column 1: exponent beyond ±1000 in '1e1111"),
         ("x" * 5001, '[["' + "x" * 5001 + '"]]', "row 1, column 1: cannot parse 'xxxx")],
        ids=["grid-100000-digit-exponent", "json-5001-character-string"],
    )
    def test_long_token_is_cut_in_the_diagnostic(self, token, text, message):
        proc = run_cli(["check-tp", "-"], stdin=text, timeout=10)
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"Error: cannot read matrix: {message}")
        assert line.endswith(f"... ({len(token)} characters)")
        assert len(line.encode()) < 200

    def test_exponent_at_the_bound_is_read(self):
        from fractions import Fraction

        rows = cli._parse_matrix_text('[[1e1000, " -.5E-1_000 "], ["1e+0_3", 1]]')
        assert rows == [[10**1000, Fraction(-5, 10**1001)], [1000, 1]]

    def test_json_object_without_matrix_key(self, runner):
        res = runner.invoke(main, ["check-tp", "-"], input='{"m": 1}')
        assert res.exit_code == 2
        assert 'cannot read matrix: the JSON object has no "matrix" key' in res.output

    def test_all_minors_size_cap(self, runner):
        text = "\n".join(" ".join(str(1 + i * j) for j in range(13)) for i in range(13))
        res = runner.invoke(main, ["check-tp", "-", "--method", "all-minors"], input=text)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Error: --method all-minors is capped at size 12" in res.output

    @pytest.mark.parametrize("args", [["3", "-1", "0"], ["-3", "1", "0"]])
    def test_gscm_negative_arguments(self, runner, args):
        res = runner.invoke(main, ["scm-count", "--gscm", "--", *args])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Error: n, p, q must be nonnegative" in res.output

    @pytest.mark.parametrize("command", ["compute", "verify", "ntable"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, runner, tmp_path, command, workers):
        res = runner.invoke(
            main,
            [command, "--family", "B", "--rank", "3", "--workers", workers,
             "--cache-dir", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "--workers" in res.output
        assert not (tmp_path / "B3.ntable.json").exists()

    @pytest.mark.parametrize("command", ["compute", "verify", "ntable"])
    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_nonpositive_rank_is_usage_error(self, runner, tmp_path, command, rank):
        res = runner.invoke(
            main, [command, "--family", "B", "--rank", rank, "--cache-dir", str(tmp_path)]
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "--rank must be positive" in res.output


# Exponents as Fraction reads them: signed or not, with _ separators or not,
# within the bound and far beyond it (a huge one must be refused, not built).
EXPONENTS = st.builds(
    lambda e, sign, digits: f"{e}{sign}{digits}",
    st.sampled_from(["e", "E"]),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 40).map(str)
    | st.sampled_from(["400", "0_7", "1_000", "1001", "2_0000000", "20000000", "9" * 30]),
)
# Matrix tokens: integers, fractions (zero denominators included), decimals,
# numbers with small and huge exponents, and junk.
TOKENS = st.one_of(
    st.integers(-40, 40).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["1.5", "-0.25", ".", "/", "-", "1/", "x", "nan", "inf", "[", "{", '"']),
    st.tuples(st.sampled_from(["1", "-2", ".5", "3.25", "1/2", ""]), EXPONENTS).map("".join),
    st.text(alphabet="0123456789-/.abe", max_size=4),
)
GRIDS = st.lists(
    st.lists(TOKENS, min_size=0, max_size=4).map(" ".join), min_size=0, max_size=4
).map("\n".join)
SQUARE_GRIDS = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(TOKENS, min_size=n, max_size=n).map(" ".join),
                       min_size=n, max_size=n)
).map("\n".join)
JSON_ENTRIES = st.one_of(
    TOKENS, st.integers(-40, 40), st.floats(-1e3, 1e3), st.booleans(), st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
)
JSON_GRIDS = st.one_of(
    st.lists(st.lists(JSON_ENTRIES, max_size=4), max_size=4),
    st.lists(JSON_ENTRIES, max_size=4),
    JSON_ENTRIES,
)
JSON_TEXTS = st.one_of(
    JSON_GRIDS,
    st.dictionaries(st.sampled_from(["matrix", "m", "rows"]), JSON_GRIDS, max_size=2),
).map(json.dumps)
MATRIX_TEXTS = st.one_of(GRIDS, SQUARE_GRIDS, JSON_TEXTS, st.text(max_size=30))


class TestCheckTpFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=MATRIX_TEXTS, method=st.sampled_from(["auto", "all-minors", "fekete"]))
    def test_exit_code_documented_and_no_traceback(self, runner, text, method):
        res = runner.invoke(main, ["check-tp", "-", "--method", method], input=text)
        assert res.exit_code in (0, 1, 2), (res.exit_code, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output


# Integer tokens up to rank 30 (negative, zero and out-of-range included) and
# tokens click must reject as integers.
ARG_TOKENS = st.one_of(
    st.integers(-3, 30).map(str),
    st.sampled_from(["2.5", "1e3", "0x10", "x", "", "-", "--", " 3", "٣"]),
)


def assert_documented_exit(res):
    assert res.exit_code in (0, 1, 2, 3), (res.exit_code, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


class TestTypeBArgsFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=ARG_TOKENS, p=ARG_TOKENS, q=ARG_TOKENS, gscm=st.booleans())
    def test_scm_count(self, runner, n, p, q, gscm):
        args = ["scm-count", n, p, q] + (["--gscm"] if gscm else [])
        assert_documented_exit(runner.invoke(main, args))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        family=st.sampled_from(["B", "b", "I2", "i2"]),
        rank=st.none() | ARG_TOKENS,
        m=st.none() | ARG_TOKENS,
    )
    def test_compute_formula(self, runner, family, rank, m):
        args = ["compute", "--method", "formula", "--family", family]
        args += [] if rank is None else ["--rank", rank]
        args += [] if m is None else ["--m", m]
        assert_documented_exit(runner.invoke(main, args))


# The seven families in either case and tokens that name none of them; ranks
# around the supported 1..8 and bond orders around the realizable 2..6.
FAMILY_TOKENS = st.sampled_from(
    ["A", "B", "D", "I2", "H", "F", "E", "a", "i2", "e", "C", "G", "I", "I3", "x", ""]
)
RANK_TOKENS = st.integers(-2, 9).map(str)
M_TOKENS = st.integers(-1, 8).map(str)


class TestGroupArgsFuzz:
    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        # one cache for the whole class, so each group is enumerated once
        return str(tmp_path_factory.mktemp("fuzz-cache"))

    @pytest.mark.parametrize(
        "command",
        [
            ["compute", "--method", "enumerate"],
            ["compute", "--method", "oracle"],
            ["verify"],
            ["ntable"],
        ],
        ids=["enumerate", "oracle", "verify", "ntable"],
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(family=FAMILY_TOKENS, rank=st.none() | RANK_TOKENS, m=st.none() | M_TOKENS)
    def test_documented_exit(self, runner, cache, command, family, rank, m):
        args = command + ["--family", family, "--workers", "1", "--cache-dir", cache]
        args += [] if rank is None else ["--rank", rank]
        args += [] if m is None else ["--m", m]
        assert_documented_exit(runner.invoke(main, args))


class TestInternalError:
    BAD_B2 = Metamatrix(n=2, entries=((8, 8, 1), (8, 10, 2), (1, 2, 2)))

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_metamatrix_invariant_failure_exits_4(self, runner, monkeypatch, command):
        monkeypatch.setattr(typeb, "metamatrix_typeb", lambda n: self.BAD_B2)
        res = runner.invoke(main, [command, "--family", "B", "--rank", "2"])
        assert res.exit_code == 4
        assert res.output.splitlines() == [
            "Error: internal error: AssertionError: B2 formula: row 2 is not C(2, q)"
        ]

    def test_unexpected_exception_exits_4(self, runner, monkeypatch):
        def boom(system):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(engine, "metamatrix_bruteforce", boom)
        res = runner.invoke(
            main, ["compute", "--family", "A", "--rank", "2", "--method", "oracle"]
        )
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.splitlines() == ["Error: internal error: RuntimeError: boom second line"]


class TestCacheWrite:
    def args(self, cache):
        return [
            "compute", "--family", "B", "--rank", "3",
            "--method", "enumerate", "--format", "json", "--cache-dir", str(cache),
        ]

    def test_unwritable_cache_dir_warns_and_computes(self, runner, tmp_path):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("")
        res = runner.invoke(main, self.args(not_a_dir))
        assert res.exit_code == 0
        assert matrix_of(res.stdout) == [list(r) for r in metamatrix_typeb(3).entries]
        [warning] = res.stderr.splitlines()
        assert warning.startswith("warning: N-table not cached")
        assert not_a_dir.read_text() == ""

    def test_non_object_entry_recomputed(self, runner, tmp_path):
        (tmp_path / "B3.ntable.json").write_text("[]")
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.stdout) == [list(r) for r in metamatrix_typeb(3).entries]

    def test_directory_in_place_of_entry(self, runner, tmp_path):
        (tmp_path / "B3.ntable.json").mkdir()
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert matrix_of(res.stdout) == [list(r) for r in metamatrix_typeb(3).entries]
        assert res.stderr.startswith("warning: N-table not cached")
        assert [p.name for p in tmp_path.iterdir()] == ["B3.ntable.json"]

    def test_write_leaves_no_temp_file(self, runner, tmp_path):
        res = runner.invoke(main, self.args(tmp_path))
        assert res.exit_code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["B3.ntable.json"]
        payload = json.loads((tmp_path / "B3.ntable.json").read_text())
        assert payload["checksum"] == cli._checksum(payload)
