"""Workloads of the metamatrix benchmark: the jobs each one runs, the inputs
made from the seed, and the checkers that decide whether a job's output is
correct.

A job is one `metamatrix` CLI invocation.  Its checker receives the exit code
and the standard output and returns None when the output is correct, or a
one-line reason when it is not.  A job whose checker fails counts as failed
and its time is dropped.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Checker = Callable[[int, str], "str | None"]

WORKLOADS = ("enumerate", "verify", "certify")

# The negative job perturbs one solid window of this size in the B24 table;
# its row offset is drawn from NEG_ROW_RANGE, so the certifier stops after
# 2,656 to 2,735 minors whatever the seed.
NEG_WINDOW = 6
NEG_ROW_RANGE = range(4)

# Positive divisors for the rows of the B20 table (the Fraction path).
ROW_DIVISORS = (2, 3, 5, 7)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    `cache` names the job's N-table cache directory within a pass: the first
    job that names a directory finds it empty (cold), later jobs find what it
    left (warm).  `warm` marks a job that must find the cache filled.
    `in_process` is False for a job that the traced run skips because in one
    process it repeats another job exactly (the traced run uses one worker).
    """

    name: str
    args: tuple[str, ...]
    check: Checker
    cache: str | None = None
    warm: bool = False
    in_process: bool = True
    elements: int = 0  # elements its N-table accumulation must count


class Tally:
    """Outcomes of the operations of one run.  A failed operation adds to
    `failed` and keeps no time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: dict[str, list[float]] = {}
        self.exit_codes: dict[str, list[int]] = {}

    def record(self, job: Job, code: int, stdout: str, wall: float,
               precondition: str | None = None) -> bool:
        self.attempted += 1
        self.exit_codes.setdefault(job.name, []).append(code)
        try:
            reason = precondition or job.check(code, stdout)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            self.failed += 1
            self.failures.append(f"{job.name}: {reason}")
            return False
        self.walls.setdefault(job.name, []).append(wall)
        return True


def exit_zero(code: int, stdout: str) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


# --------------------------------------------------------------------------
# Reference data


def load_golden(path: Path) -> dict[str, list[list[int]]]:
    """Frozen tables from tests/golden.py, read as data (never imported)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    tables = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.List)
        ):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def fekete_count(size: int) -> int:
    """Number of solid minors of a size x size matrix."""
    return sum(m * m for m in range(1, size + 1))


def all_minors_count(size: int) -> int:
    return math.comb(2 * size, size) - 1


def typeb_invariant_failure(n: int, table: list[list[int]]) -> str | None:
    """Cheap invariants of the B_n metamatrix: M_00 = 2^n n!, symmetry, and
    last row C(n, q)."""
    if len(table) != n + 1 or any(len(row) != n + 1 for row in table):
        return f"B{n} table is not {n + 1}x{n + 1}"
    if table[0][0] != 2**n * math.factorial(n):
        return f"B{n} M_00 = {table[0][0]}, expected 2^n n!"
    if any(table[p][q] != table[q][p] for p in range(n + 1) for q in range(p)):
        return f"B{n} table is not symmetric"
    if table[n] != [math.comb(n, q) for q in range(n + 1)]:
        return f"B{n} last row is not C(n, q)"
    return None


# --------------------------------------------------------------------------
# Checkers


def _json_head(stdout: str):
    """The JSON object at the start of stdout (verify prints a summary line
    after it)."""
    obj, _ = json.JSONDecoder().raw_decode(stdout.lstrip())
    return obj


def _int_matrix(payload) -> list[list[int]]:
    return [[int(x) for x in row] for row in payload["matrix"]]


def golden_table(expected: list[list[int]], pipeline: str) -> Checker:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        payload = _json_head(stdout)
        if payload.get("pipeline") != pipeline:
            return f"pipeline {payload.get('pipeline')!r}, expected {pipeline!r}"
        if _int_matrix(payload) != expected:
            return "table differs from the golden table"
        return None

    return check


def typeb_table(n: int) -> Checker:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        return typeb_invariant_failure(n, _int_matrix(_json_head(stdout)))

    return check


def pipelines_agree(legs: list[str]) -> Checker:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        report = _json_head(stdout)
        if report.get("agree") is not True:
            return f"pipelines disagree: {report.get('first_difference')}"
        if report.get("legs") != legs:
            return f"legs {report.get('legs')}, expected {legs}"
        return None

    return check


def tp_positive(method: str, minors: int) -> Checker:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        cert = _json_head(stdout)
        if cert.get("verdict") != "totally-positive" or cert.get("witness") is not None:
            return f"verdict {cert.get('verdict')!r}, expected totally-positive"
        if cert.get("method") != method:
            return f"method {cert.get('method')!r}, expected {method!r}"
        if cert.get("minors_checked") != minors:
            return f"minors_checked {cert.get('minors_checked')}, expected {minors}"
        return None

    return check


def tp_negative(matrix: list[list[int]], window: tuple[tuple[int, ...], tuple[int, ...]],
                minors: int) -> Checker:
    """A Fekete run that must stop at `window`, after `minors` minors, with a
    witness whose value re-evaluates exactly and is <= 0."""
    from metamatrix.exactlinear import Matrix, bareiss_det

    def check(code: int, stdout: str) -> str | None:
        if code != 1:
            return f"exit code {code}, expected 1"
        cert = _json_head(stdout)
        if cert.get("verdict") != "not-totally-positive":
            return f"verdict {cert.get('verdict')!r}, expected not-totally-positive"
        if cert.get("minors_checked") != minors:
            return f"minors_checked {cert.get('minors_checked')}, expected {minors}"
        witness = cert.get("witness") or {}
        rows, cols = tuple(witness.get("rows", ())), tuple(witness.get("cols", ()))
        if (rows, cols) != window:
            return f"witness window {rows}x{cols}, expected {window}"
        stated = Fraction(witness["minor"])
        actual = bareiss_det(Matrix.from_rows([[matrix[i][j] for j in cols] for i in rows]))
        if stated != actual:
            return f"witness minor {stated} re-evaluates to {actual}"
        if stated > 0:
            return f"witness minor {stated} is positive"
        return None

    return check


# --------------------------------------------------------------------------
# Inputs made from the seed


def _window(size: int, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(i, i + size)), tuple(range(j, j + size))


def _fekete_index(n: int, size: int, i: int, j: int) -> int:
    """1-based position of window (size, i, j) in the Fekete scan order."""
    smaller = sum((n - s + 1) ** 2 for s in range(1, size))
    return smaller + i * (n - size + 1) + j + 1


def perturbed_table(table: list[list[int]], rng: random.Random):
    """Lower one entry of a totally positive table so that a seed-chosen
    solid window is the first minor of the Fekete scan to be <= 0.

    The corner of a NEG_WINDOW window drops by ceil(det W / det W'), where W'
    is W without its last row and column, so det W becomes <= 0.  Only
    windows that contain the corner change; if one that the scan meets
    earlier turns <= 0 too, the next candidate window is tried.
    Returns (matrix, window, minors checked up to and including it).
    """
    from metamatrix.exactlinear import Matrix, bareiss_det

    def det(grid, size, i, j):
        return bareiss_det(Matrix.from_rows([row[j:j + size] for row in grid[i:i + size]]))

    n, k = len(table), NEG_WINDOW
    candidates = [(i, j) for i in NEG_ROW_RANGE for j in range(n - k + 1)]
    rng.shuffle(candidates)
    for i, j in candidates:
        r, c = i + k - 1, j + k - 1
        grid = [row[:] for row in table]
        grid[r][c] -= -(-det(table, k, i, j) // det(table, k - 1, i, j))
        stop = _fekete_index(n, k, i, j)
        earlier = [
            (s, a, b)
            for s in range(1, k + 1)
            for a in range(max(0, r - s + 1), min(r, n - s) + 1)
            for b in range(max(0, c - s + 1), min(c, n - s) + 1)
            if _fekete_index(n, s, a, b) < stop
        ]
        if all(det(grid, s, a, b) > 0 for s, a, b in earlier):
            return grid, _window(k, i, j), stop
    raise RuntimeError("input generation: no window can be made the first negative minor")


def _write_matrix(path: Path, grid) -> str:
    path.write_text(json.dumps({"matrix": [[str(x) for x in row] for row in grid]}))
    return str(path)


def _typeb(n: int) -> list[list[int]]:
    from metamatrix.typeb import metamatrix_typeb

    table = [list(row) for row in metamatrix_typeb(n).entries]
    failure = typeb_invariant_failure(n, table)
    if failure:
        raise RuntimeError(f"input generation: {failure}")
    return table


# --------------------------------------------------------------------------
# Job lists


def _compute(family: str, rank: int, *extra: str) -> tuple[str, ...]:
    return ("compute", "--family", family, "--rank", str(rank), "--format", "json", *extra)


def jobs_for(workload: str, seed: int, golden: dict, inputs: Path) -> list[Job]:
    """The jobs of one pass.  Only `certify` draws its inputs from the seed;
    the other two workloads run fixed systems."""
    if workload == "enumerate":
        w1 = ("--workers", "1")
        return [
            Job("e6_cold_s", _compute("E", 6, *w1),
                golden_table(golden["E6"], "enumeration"), cache="e6",
                elements=golden["E6"][0][0]),
            Job("e7_cold_s", _compute("E", 7, *w1),
                golden_table(golden["E7"], "enumeration"), cache="e7",
                elements=golden["E7"][0][0]),
            Job("e7_cold_w2_s", _compute("E", 7, "--workers", "2"),
                golden_table(golden["E7"], "enumeration"), cache="e7w2",
                in_process=False),
            Job("e7_warm_s", _compute("E", 7, *w1),
                golden_table(golden["E7"], "enumeration"), cache="e7", warm=True),
            Job("h4_cold_s", _compute("H", 4, *w1),
                golden_table(golden["H4"], "enumeration"), cache="h4",
                elements=golden["H4"][0][0]),
        ]
    if workload == "verify":
        # (family, rank, group order, legs verify must run)
        systems = [("D", 5, 1920, ["enumeration", "oracle"]),
                   ("F", 4, 1152, ["enumeration", "oracle"]),
                   ("B", 4, 384, ["enumeration", "formula", "oracle"]),
                   ("H", 3, 120, ["enumeration", "oracle"])]
        return [
            Job(f"verify_{fam.lower()}{rank}_s",
                ("verify", "--family", fam, "--rank", str(rank), "--workers", "1"),
                pipelines_agree(legs), cache=f"{fam}{rank}", elements=order)
            for fam, rank, order, legs in systems
        ]
    if workload == "certify":
        rng = random.Random(seed)
        b24 = _typeb(24)
        b20 = _typeb(20)
        divisors = [rng.choice(ROW_DIVISORS) for _ in b20]
        b20q = [[Fraction(x, d) for x in row] for row, d in zip(b20, divisors)]
        negative, window, stop = perturbed_table(b24, rng)
        b24_path = _write_matrix(inputs / "b24.json", b24)
        return [
            Job("formula_b64_s", _compute("B", 64), typeb_table(64)),
            Job("fekete_b24_s", ("check-tp", b24_path, "--method", "fekete"),
                tp_positive("fekete", fekete_count(25))),
            Job("fekete_b20q_s",
                ("check-tp", _write_matrix(inputs / "b20q.json", b20q), "--method", "fekete"),
                tp_positive("fekete", fekete_count(21))),
            Job("allminors_e8_s",
                ("check-tp", _write_matrix(inputs / "e8.json", golden["E8"]),
                 "--method", "all-minors"),
                tp_positive("all-minors", all_minors_count(9))),
            Job("negative_b24_s",
                ("check-tp", _write_matrix(inputs / "b24neg.json", negative),
                 "--method", "fekete"),
                tp_negative(negative, window, stop)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
