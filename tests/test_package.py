"""The package surface: the lazy package root, every command run without
numpy, the tests' reference kept apart from the pipelines, and the entry
points that the benchmark's traced run wraps by name
(`perfbench/tracing.py`)."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metamatrix

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(metamatrix.__file__).resolve().parent.parent

# the package root's exports: (name, the module that defines it)
EXPORTS = [
    ("CoxeterSystem", "coxeter"),
    ("build_system", "coxeter"),
    ("UnsupportedSystem", "tables"),
    ("Metamatrix", "tables"),
    ("NTable", "tables"),
    ("dihedral_ntable", "tables"),
    ("metamatrix_from_ntable", "tables"),
    ("accumulate_ntable", "engine"),
    ("double_coset_count", "engine"),
    ("metamatrix_bruteforce", "engine"),
    ("TPCertificate", "tp"),
    ("all_minors_positive", "tp"),
    ("fekete_check", "tp"),
    ("gauss_decomposition_typeb", "typeb"),
    ("metamatrix_typeb", "typeb"),
]


def run_python(code: str, stdin: str = "") -> dict:
    """Run `code` in a fresh interpreter on this source tree; it reports by
    printing one JSON object as its last line on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=env, timeout=120,
    )
    return json.loads(proc.stderr.strip().splitlines()[-1])


class TestLazyRoot:
    def test_serves_every_export(self):
        for name, module in EXPORTS:
            defining = importlib.import_module(f"metamatrix.{module}")
            assert getattr(metamatrix, name) is getattr(defining, name)
        assert metamatrix.__version__ == "0.1.0"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            metamatrix.no_such_name
        assert not hasattr(metamatrix, "ENGINE_VERSION")

    def test_submodules_import_from_root(self):
        from metamatrix import cli, engine

        assert cli.main is not None
        assert engine.NTable is metamatrix.NTable


def numpy_after(statements: str, stdin: str = "") -> dict:
    code = (
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'code': code}), file=sys.stderr)\n"
    )
    return run_python(code, stdin)


def loaded_after(statements: str, modules: list[str], stdin: str = "") -> dict:
    code = (
        "import json, sys\n"
        f"{statements}\n"
        f"print(json.dumps({{m: m in sys.modules for m in {modules!r}}}), file=sys.stderr)\n"
    )
    return run_python(code, stdin)


def cli_run(args: list[str]) -> str:
    return (
        "from metamatrix.cli import main\n"
        "try:\n"
        f"    main({args!r})\n"
        "    code = 0\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
    )


class TestLazyCommands:
    """The CLI starts on the standard library, and a command loads only the
    modules it uses."""

    def test_import_cli_loads_no_pipeline(self):
        modules = ["click", "dataclasses", "inspect", "fractions", "metamatrix.tp",
                   "metamatrix.typeb", "metamatrix.coxeter", "metamatrix.engine"]
        got = loaded_after("import metamatrix.cli", modules)
        assert got == dict.fromkeys(modules, False)

    def test_type_b_formula_loads_no_enumeration(self):
        # nor the rational arithmetic: the formula is in python ints
        modules = ["metamatrix.coxeter", "metamatrix.engine", "fractions",
                   "metamatrix.exactlinear", "metamatrix.tp"]
        got = loaded_after(cli_run(["compute", "--family", "B", "--rank", "8"]), modules)
        assert got == dict.fromkeys(modules, False)

    def test_check_tp_loads_tp_alone(self):
        # the Bareiss re-check of a witness lives in tp, not in exactlinear
        modules = ["metamatrix.tp", "metamatrix.exactlinear", "metamatrix.typeb",
                   "metamatrix.coxeter", "metamatrix.engine"]
        got = loaded_after(cli_run(["check-tp", "-"]), modules, stdin="[[1, 2], [3, 4]]")
        assert got == {**dict.fromkeys(modules, False), "metamatrix.tp": True}


class TestStartWithoutNumpy:
    def test_import_cli_and_tp(self):
        assert numpy_after("import metamatrix.cli, metamatrix.tp\ncode = None") == {
            "numpy": False, "code": None,
        }
        # nor hashlib, which only the N-table cache checksum needs
        got = loaded_after("import metamatrix.cli, metamatrix.tp", ["hashlib"])
        assert got == {"hashlib": False}

    def test_check_tp(self):
        got = numpy_after(cli_run(["check-tp", "-"]), stdin="[[2, 1], [1, 1]]")
        assert got == {"numpy": False, "code": 0}

    def test_compute_type_b(self):
        got = numpy_after(cli_run(["compute", "--family", "B", "--rank", "8"]))
        assert got == {"numpy": False, "code": 0}

    def test_enumeration_modules(self):
        got = numpy_after("import metamatrix.coxeter, metamatrix.engine, metamatrix._kernels\n"
                          "code = None")
        assert got == {"numpy": False, "code": None}

    @pytest.mark.parametrize("command", ["compute", "ntable"])
    def test_enumeration_leaves_numpy_out(self, tmp_path, command):
        args = [command, "--family", "E", "--rank", "7", "--cache-dir", str(tmp_path)]
        if command == "compute":
            args += ["--method", "enumerate"]
        assert numpy_after(cli_run(args)) == {"numpy": False, "code": 0}

    @pytest.mark.parametrize(
        "args",
        [["verify", "--family", "D", "--rank", "5"],
         ["compute", "--family", "H", "--rank", "4", "--method", "oracle"]],
        ids=["verify-D5", "compute-H4-oracle"],
    )
    def test_oracle_leaves_numpy_out(self, tmp_path, args):
        got = numpy_after(cli_run(args + ["--cache-dir", str(tmp_path)]))
        assert got == {"numpy": False, "code": 0}


def test_definitional_reference_uses_only_the_catalog():
    """The tests' reference shares no code with the pipelines it checks."""
    nodes = list(ast.walk(ast.parse((ROOT / "tests" / "definitional.py").read_text())))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
    assert {name for name in modules if name.startswith("metamatrix")} == {"metamatrix.tables"}


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(f"metamatrix.{module}"), attr, None))


class TestTracedRunContract:
    """The traced benchmark run wraps entry points by (module, attribute) and
    silently drops a metric whose span has no target, so every span must
    keep at least one callable target."""

    def test_every_span_has_a_callable_target(self, tracing):
        spans = {}
        for module, attr, span, _ in tracing.TARGETS:
            spans[span] = spans.get(span, False) or resolves(module, attr)
        assert [span for span, found in spans.items() if not found] == []

    def test_every_per_layer_metric_is_reported(self, tracing):
        installed = {
            span for module, attr, span, _ in tracing.TARGETS if resolves(module, attr)
        }
        reported = set(tracing.layer_metrics(tracing.Recorder(), installed))
        reported.add("trace.overhead_s")  # run.py adds it from the two passes
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert reported == {metric["name"] for metric in spec["per_layer"]}
