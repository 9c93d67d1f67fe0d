"""Command-line frontend: compute, check-tp, verify, ntable, scm-count.

Exit codes: 0 success / totally positive, 1 verified negative result,
2 usage or parse error, 3 resource limit, 4 internal error (an unexpected
exception, reported in one line).  All big integers are emitted as
decimal strings so output is lossless at any magnitude.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import engine, tp, typeb
from .coxeter import (
    _I2_MATRIX_M,
    EnumerationLimit,
    UnsupportedSystem,
    _group_order,
    build_system,
)
from .exactlinear import Matrix

DEFAULT_CACHE_DIR = "~/.metamatrix-cache"


class ResourceLimit(click.ClickException):
    exit_code = 3


class NegativeResult(click.ClickException):
    exit_code = 1

    def show(self, file=None):  # message already printed as payload
        pass


class InternalError(click.ClickException):
    exit_code = 4


def _cache_dir(option_value: str | None) -> Path:
    if option_value:
        return Path(option_value)
    env = os.environ.get("METAMATRIX_CACHE_DIR")
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR).expanduser()


def _label(family: str, rank: int, m: int | None) -> str:
    return f"{family}{rank}" if m is None else f"{family}m{m}"


def _ntable_payload(family, rank, m, order, table: engine.NTable) -> dict:
    payload = {
        "family": family,
        "rank": rank,
        "m": m,
        "order": str(order),
        "engine_version": engine.ENGINE_VERSION,
        "ntable": [[str(x) for x in row] for row in table.counts],
    }
    payload["checksum"] = _checksum(payload)
    return payload


def _checksum(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_cached(path: Path, system) -> engine.NTable | None:
    """The cached N-table at `path`, or None when the entry is missing,
    unreadable, corrupt, written by another engine version, or fails the
    N-table invariants for `system`."""
    try:
        payload = json.loads(path.read_text())
        if not (
            isinstance(payload, dict)
            and payload.get("checksum") == _checksum(payload)
            and payload.get("engine_version") == engine.ENGINE_VERSION
        ):
            return None
        counts = tuple(tuple(int(x) for x in row) for row in payload["ntable"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    table = engine.NTable(n=system.rank, counts=counts)
    if engine.ntable_invariant_failure(table, system.order) is not None:
        return None
    return table


def _cached_ntable(
    system, cache: Path, workers: int | None, progress=None
) -> engine.NTable:
    """The N-table of `system`, from the cache or computed with `workers`
    processes (None: one per usable CPU) and then cached."""
    family, rank, m = system.family, system.rank, system.m
    path = cache / f"{_label(family, rank, m)}.ntable.json"
    if path.exists():
        table = _read_cached(path, system)
        if table is not None:
            return table
    if workers is None:
        workers = engine.usable_cpus()
    table = engine.accumulate_ntable(system, workers=workers, progress=progress)
    try:
        _write_atomic(path, json.dumps(_ntable_payload(family, rank, m, system.order, table)))
    except OSError as exc:
        click.echo(f"warning: N-table not cached: {exc}", err=True)
    return table


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, so a reader sees the
    old entry or the whole new one, never a partial write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _matrix_json(family, rank, m, pipeline, entries) -> str:
    payload = {
        "family": family,
        "rank": rank,
        "m": m,
        "pipeline": pipeline,
        "matrix": [[str(x) for x in row] for row in entries],
    }
    return json.dumps(payload, indent=2)


def _emit_matrix(entries, fmt: str, family=None, rank=None, m=None, pipeline=None):
    if fmt == "json":
        click.echo(_matrix_json(family, rank, m, pipeline, entries))
    elif fmt == "csv":
        for row in entries:
            click.echo(",".join(str(x) for x in row))
    else:
        width = max(len(str(x)) for row in entries for x in row)
        for row in entries:
            click.echo(" ".join(str(x).rjust(width) for x in row))


def _parse_family(family: str) -> str:
    fam = family.upper()
    if fam not in {"A", "B", "D", "I2", "H", "F", "E"}:
        raise click.UsageError(f"unknown family {family!r}")
    return fam

def _resolve_spec(family: str, rank: int | None, m: int | None) -> tuple[str, int, int | None]:
    fam = _parse_family(family)
    if fam == "I2":
        if m is None:
            raise click.UsageError("family I2 requires --m")
        if m < 2:
            raise click.UsageError("I2 requires m >= 2")
        return fam, 2, m
    if rank is None:
        raise click.UsageError("--rank is required for this family")
    if rank < 1:
        raise click.UsageError("--rank must be positive")
    return fam, rank, None


def _progress_printer(label: str):
    def progress(done: int, total: int):
        click.echo(f"{label}: top-level coset {done}/{total} done", err=True)

    return progress


def _compute_metamatrix(
    fam: str,
    rank: int,
    m: int | None,
    method: str,
    workers: int | None,
    cache: Path,
    allow_long: bool,
) -> engine.Metamatrix:
    if method == "formula":
        if fam == "B":
            return typeb.metamatrix_typeb(rank)
        if fam == "I2":
            return engine.metamatrix_from_ntable(
                engine.dihedral_ntable(m), provenance="formula"
            )
        raise click.UsageError("--method formula is only available for families B and I2")
    if method == "enumerate":
        if fam == "I2" and m not in _I2_MATRIX_M:
            raise click.UsageError(
                f"I2({m}) has no exact matrix realization here; use --method formula"
            )
        if fam == "E" and rank == 8 and not allow_long:
            raise ResourceLimit(
                "E8 enumeration is a long-running job; re-run with --allow-long-running"
            )
        progress = _progress_printer(_label(fam, rank, m)) if fam == "E" and rank == 8 else None
        table = _cached_ntable(build_system(fam, rank, m), cache, workers, progress)
        return engine.metamatrix_from_ntable(table)
    # oracle; its group table raises EnumerationLimit above engine.ORACLE_LIMIT
    return engine.metamatrix_bruteforce(build_system(fam, rank, m))


def _check_invariants(result: engine.Metamatrix, fam: str, rank: int, m: int | None) -> None:
    """Raise AssertionError (exit 4: a defect, not a verdict) when `result`
    fails the metamatrix invariants of the group it claims to describe."""
    failure = engine.metamatrix_invariant_failure(result, _group_order(fam, rank, m))
    if failure is not None:
        raise AssertionError(f"{_label(fam, rank, m)} {result.provenance}: {failure}")


class _Main(click.Group):
    """The command group; an exception that no command handles exits with
    code 4 and a one-line message instead of a traceback and code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            detail = " ".join(str(exc).split())  # one line, whatever the message
            raise InternalError(f"internal error: {type(exc).__name__}: {detail}") from exc


@click.group(cls=_Main)
def main():
    """Exact contingency metamatrices of finite Coxeter groups."""


_common = [
    click.option("--family", required=True, help="A, B, D, I2, H, F, or E"),
    click.option("--rank", type=int, default=None),
    click.option("--m", type=int, default=None, help="bond order for I2"),
    click.option(
        "--workers",
        type=click.IntRange(min=1),
        default=None,
        help="worker processes, at most one per usable CPU (default: the usable CPUs)",
    ),
    click.option("--cache-dir", default=None, help="N-table cache directory"),
]


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


@main.command()
@_with_common
@click.option(
    "--method",
    type=click.Choice(["formula", "enumerate", "oracle"]),
    default=None,
    help="pipeline (default: formula for B/I2, enumerate otherwise)",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="pretty")
@click.option("--allow-long-running", is_flag=True)
def compute(family, rank, m, workers, cache_dir, method, fmt, allow_long_running):
    """Compute the metamatrix of a Coxeter group."""
    fam, rank, m = _resolve_spec(family, rank, m)
    if method is None:
        method = "formula" if fam in ("B", "I2") else "enumerate"
    try:
        result = _compute_metamatrix(
            fam,
            rank,
            m,
            method,
            workers,
            _cache_dir(cache_dir),
            allow_long_running,
        )
    except UnsupportedSystem as exc:
        raise click.UsageError(str(exc))
    except EnumerationLimit as exc:
        raise ResourceLimit(str(exc))
    _check_invariants(result, fam, rank, m)
    _emit_matrix(result.entries, fmt, fam, rank, m, result.provenance)


def _parse_entry(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}")


def _parse_matrix_text(text: str) -> Matrix:
    if not text.strip():
        raise ValueError("empty matrix input")
    stripped = text.lstrip()
    if stripped[0] in "{[":
        payload = json.loads(text)
        if isinstance(payload, dict) and "matrix" not in payload:
            raise ValueError('the JSON object has no "matrix" key')
        grid = payload["matrix"] if isinstance(payload, dict) else payload
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise ValueError("the matrix must be a list of rows")
        if not grid:
            raise ValueError("the matrix has no rows")
        return Matrix.from_rows([[_parse_entry(str(x)) for x in row] for row in grid])
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for col, tok in enumerate(line.split(), start=1):
            try:
                row.append(_parse_entry(tok))
            except ValueError:
                raise ValueError(f"line {ln}, column {col}: cannot parse {tok!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"line {ln}: expected {width} entries, got {len(row)}")
        rows.append(row)
    return Matrix.from_rows(rows)


@main.command("check-tp")
@click.argument("source")
@click.option(
    "--method",
    type=click.Choice(["auto", "all-minors", "fekete"]),
    default="auto",
)
def check_tp(source, method):
    """Certify total positivity of a matrix (file path or '-' for stdin)."""
    try:
        text = sys.stdin.read() if source == "-" else Path(source).read_text()
        matrix = _parse_matrix_text(text)
        if not matrix.is_square:
            raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, not square")
    except (OSError, ValueError, RecursionError) as exc:  # deep JSON nesting recurses
        raise click.UsageError(f"cannot read matrix: {exc}")
    if method == "auto":
        method = "all-minors" if matrix.rows <= 9 else "fekete"
    if method == "all-minors" and matrix.rows > tp.ALL_MINORS_SIZE_CAP:
        raise click.UsageError(
            f"--method all-minors is capped at size {tp.ALL_MINORS_SIZE_CAP} "
            f"(matrix is {matrix.rows}x{matrix.rows}); use --method fekete"
        )
    cert = (
        tp.all_minors_positive(matrix)
        if method == "all-minors"
        else tp.fekete_check(matrix)
    )
    payload = {
        "verdict": cert.verdict,
        "method": cert.method,
        "minors_checked": cert.minors_checked,
        "witness": None
        if cert.witness is None
        else {
            "rows": list(cert.witness.rows),
            "cols": list(cert.witness.cols),
            "minor": str(cert.witness.minor),
        },
    }
    click.echo(json.dumps(payload, indent=2))
    if not cert.is_totally_positive:
        raise NegativeResult("matrix is not totally positive")


@main.command()
@_with_common
def verify(family, rank, m, workers, cache_dir):
    """Cross-check every applicable pipeline and report agreement."""
    fam, rank, m = _resolve_spec(family, rank, m)
    cache = _cache_dir(cache_dir)
    legs: dict[str, engine.Metamatrix] = {}
    try:
        if fam == "B":
            legs["formula"] = typeb.metamatrix_typeb(rank)
        elif fam == "I2":
            legs["formula"] = engine.metamatrix_from_ntable(
                engine.dihedral_ntable(m), provenance="formula"
            )
        if fam != "I2" or m in _I2_MATRIX_M:
            if fam == "E" and rank == 8:
                raise ResourceLimit("E8 verification requires --allow-long-running compute runs")
            system = build_system(fam, rank, m)
            table = _cached_ntable(system, cache, workers)
            legs["enumeration"] = engine.metamatrix_from_ntable(table)
            if system.order <= engine.ORACLE_LIMIT:
                legs["oracle"] = engine.metamatrix_bruteforce(system)
    except UnsupportedSystem as exc:
        raise click.UsageError(str(exc))
    if not legs:
        raise click.UsageError("no applicable pipeline for this system")
    for leg in legs.values():
        _check_invariants(leg, fam, rank, m)

    names = sorted(legs)
    reference_name = names[0]
    reference = legs[reference_name]
    first_diff = None
    for name in names[1:]:
        other = legs[name]
        for p, row in enumerate(reference.entries):
            for q, value in enumerate(row):
                if other.entries[p][q] != value and first_diff is None:
                    first_diff = {
                        "entry": [p, q],
                        reference_name: str(value),
                        name: str(other.entries[p][q]),
                    }
    report = {
        "family": fam,
        "rank": rank,
        "m": m,
        "legs": names,
        "agree": first_diff is None,
        "first_difference": first_diff,
    }
    click.echo(json.dumps(report, indent=2))
    if first_diff is None:
        click.echo(f"{_label(fam, rank, m)}: {' = '.join(names)} (all legs agree)")
    else:
        click.echo(f"{_label(fam, rank, m)}: pipelines disagree at {first_diff['entry']}")
        raise NegativeResult("pipelines disagree")


@main.command()
@_with_common
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json")
@click.option("--allow-long-running", is_flag=True)
def ntable(family, rank, m, workers, cache_dir, fmt, allow_long_running):
    """Compute (and cache) the two-sided ascent-count table."""
    fam, rank, m = _resolve_spec(family, rank, m)
    if fam == "I2" and m not in _I2_MATRIX_M:
        table = engine.dihedral_ntable(m)
        order = 2 * m
    else:
        if fam == "E" and rank == 8 and not allow_long_running:
            raise ResourceLimit(
                "E8 enumeration is a long-running job; re-run with --allow-long-running"
            )
        try:
            system = build_system(fam, rank, m)
        except UnsupportedSystem as exc:
            raise click.UsageError(str(exc))
        progress = _progress_printer(_label(fam, rank, m)) if fam == "E" and rank == 8 else None
        table = _cached_ntable(system, _cache_dir(cache_dir), workers, progress)
        order = system.order
    if fmt == "json":
        click.echo(json.dumps(_ntable_payload(fam, rank, m, order, table), indent=2))
    else:
        _emit_matrix(table.counts, fmt)


@main.command("scm-count")
@click.argument("n", type=int)
@click.argument("p", type=int)
@click.argument("q", type=int)
@click.option("--gscm", is_flag=True, help="count generalized matrices (closed form)")
def scm_count_cmd(n, p, q, gscm):
    """Count (generalized) signed contingency matrices at lengths (P, Q)."""
    if not gscm and n > typeb.SCM_BRUTE_FORCE_CAP:
        raise ResourceLimit(
            f"brute-force SCM enumeration capped at n = {typeb.SCM_BRUTE_FORCE_CAP}"
        )
    try:
        count = typeb.gscm_count(n, p, q) if gscm else typeb.scm_count(n, p, q)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(str(count))


if __name__ == "__main__":
    main()
