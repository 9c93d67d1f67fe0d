"""Command-line frontend: compute, check-tp, verify, ntable, scm-count.

Exit codes: 0 success / totally positive, 1 verified negative result,
2 usage or parse error, 3 resource limit (`engine.ORACLE_LIMIT`), 4 internal
error (an unexpected exception, reported in one line).  All big integers are
read and emitted as decimal strings so output is lossless at any magnitude:
the CLI lifts Python's int/str digit limit when it runs.  Matrices are lists of
rows, and `scm-count` answers any n from the closed form.

No command imports numpy.  `coxeter` and `engine` are imported on first
use, where a command enumerates, runs the oracle or reads the cache, so
`check-tp` and the formulas do not load them.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import click

from . import tp, typeb
from .tables import (
    _I2_MATRIX_M,
    _RANKS,
    EnumerationLimit,
    Metamatrix,
    NTable,
    UnsupportedSystem,
    _group_order,
    check_catalog,
    dihedral_ntable,
    metamatrix_from_ntable,
    metamatrix_invariant_failure,
    ntable_invariant_failure,
    system_label,
)

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


def build_system(family: str, rank: int, m: int | None = None):
    """`coxeter.build_system`, imported on first use."""
    from .coxeter import build_system

    return build_system(family, rank, m)


def _ntable_payload(family, rank, m, order, table: NTable) -> dict:
    from . import engine

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
    import hashlib  # only the cache needs it; kept off start-up

    body = {k: v for k, v in payload.items() if k != "checksum"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_cached(path: Path, system) -> NTable | None:
    """The cached N-table at `path`, or None when the entry is missing,
    unreadable, corrupt, written by another engine version, or fails the
    N-table invariants for `system`."""
    from . import engine

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
    table = NTable(n=system.rank, counts=counts)
    if ntable_invariant_failure(table, system.order) is not None:
        return None
    return table


def _cached_ntable(system, cache: Path) -> NTable:
    """The N-table of `system`, from the cache or computed and then cached."""
    from . import engine

    label = system_label(system.family, system.rank, system.m)
    path = cache / f"{label}.ntable.json"
    if path.exists():
        table = _read_cached(path, system)
        if table is not None:
            return table
    table = engine.accumulate_ntable(system)
    try:
        payload = _ntable_payload(system.family, system.rank, system.m, system.order, table)
        _write_atomic(path, json.dumps(payload))
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


def _resolve_spec(family: str, rank: int | None, m: int | None) -> tuple[str, int, int | None]:
    fam = family.upper()
    if fam not in _RANKS:
        raise click.UsageError(f"unknown family {family!r}")
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


def _enumeration(system, cache: Path) -> Metamatrix:
    from . import engine

    # engine's name for the transform is the one perfbench/tracing.py times
    return engine.metamatrix_from_ntable(_cached_ntable(system, cache))


def _oracle(system) -> Metamatrix:
    from . import engine

    # its double-coset table raises EnumerationLimit above engine.ORACLE_LIMIT
    return engine.metamatrix_bruteforce(system)


def _legs(fam: str, rank: int, m: int | None, cache: Path) -> dict[str, Callable[[], Metamatrix]]:
    """The pipelines that apply to the system, each a zero-argument callable
    that computes its metamatrix: `formula` for B and I2, `enumeration` (from
    the cached N-table) and `oracle` where the system has a matrix
    realization.  A system with no formula must be in the catalog, or this
    raises UnsupportedSystem; a B rank beyond the catalog surfaces as
    UnsupportedSystem when a matrix leg builds the system."""
    legs = {}
    if fam == "B":
        legs["formula"] = lambda: typeb.metamatrix_typeb(rank)
    elif fam == "I2":
        legs["formula"] = lambda: metamatrix_from_ntable(dihedral_ntable(m), provenance="formula")
    else:
        check_catalog(fam, rank, m)
    if fam != "I2" or m in _I2_MATRIX_M:
        legs["enumeration"] = lambda: _enumeration(build_system(fam, rank, m), cache)
        legs["oracle"] = lambda: _oracle(build_system(fam, rank, m))
    return legs


def _check_invariants(result: Metamatrix, fam: str, rank: int, m: int | None) -> None:
    """Raise AssertionError (exit 4: a defect, not a verdict) when `result`
    fails the metamatrix invariants of the group it claims to describe."""
    failure = metamatrix_invariant_failure(result, _group_order(fam, rank, m))
    if failure is not None:
        raise AssertionError(f"{system_label(fam, rank, m)} {result.provenance}: {failure}")


class _Main(click.Group):
    """The command group; it maps an unsupported system to exit 2 and an
    enumeration limit to exit 3, and any other exception that no command
    handles to code 4 and a one-line message instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except UnsupportedSystem as exc:
            raise click.UsageError(str(exc)) from exc
        except EnumerationLimit as exc:
            raise ResourceLimit(str(exc)) from exc
        except Exception as exc:
            detail = " ".join(str(exc).split())  # one line, whatever the message
            raise InternalError(f"internal error: {type(exc).__name__}: {detail}") from exc


@click.group(cls=_Main)
def main():
    """Exact contingency metamatrices of finite Coxeter groups."""
    # exact decimal input and output at any length: lift the 4,300-digit
    # int/str limit (releases before 3.10.7 have neither the limit nor the setter)
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)


_common = [
    click.option("--family", required=True, help=", ".join(_RANKS)),
    click.option("--rank", type=int, default=None),
    click.option("--m", type=int, default=None, help="bond order for I2"),
    click.option(
        "--workers",
        type=click.IntRange(min=1),
        default=None,
        expose_value=False,
        help="accepted for compatibility; has no effect (the enumeration runs in one process)",
    ),
    click.option("--cache-dir", default=None, help="N-table cache directory"),
]


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


# --method value -> the leg it names
_METHODS = {"formula": "formula", "enumerate": "enumeration", "oracle": "oracle"}


@main.command()
@_with_common
@click.option(
    "--method",
    type=click.Choice(list(_METHODS)),
    default=None,
    help="pipeline (default: formula for B/I2, enumerate otherwise)",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="pretty")
def compute(family, rank, m, cache_dir, method, fmt):
    """Compute the metamatrix of a Coxeter group."""
    fam, rank, m = _resolve_spec(family, rank, m)
    legs = _legs(fam, rank, m, _cache_dir(cache_dir))
    if method is None:
        method = "formula" if "formula" in legs else "enumerate"
    leg = legs.get(_METHODS[method])
    if leg is None:
        applicable = " or ".join(name for name, leg_name in _METHODS.items() if leg_name in legs)
        raise click.UsageError(
            f"--method {method} does not apply to {system_label(fam, rank, m)}; "
            f"use --method {applicable}"
        )
    result = leg()
    _check_invariants(result, fam, rank, m)
    _emit_matrix(result.entries, fmt, fam, rank, m, result.provenance)


def _parse_entry(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}")


def _parse_matrix_text(text: str) -> list[list[Fraction]]:
    """The rows of a JSON or whitespace-grid matrix; raises ValueError on
    input that is not a nonempty matrix with rows of one length."""
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
        rows = [[_parse_entry(str(x)) for x in row] for row in grid]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        return rows
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
    return rows


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
        size = len(matrix)
        if len(matrix[0]) != size:
            raise ValueError(f"matrix is {size}x{len(matrix[0])}, not square")
    except (OSError, ValueError, RecursionError) as exc:  # deep JSON nesting recurses
        raise click.UsageError(f"cannot read matrix: {exc}")
    if method == "auto":
        method = "all-minors" if size <= 9 else "fekete"
    if method == "all-minors" and size > tp.ALL_MINORS_SIZE_CAP:
        raise click.UsageError(
            f"--method all-minors is capped at size {tp.ALL_MINORS_SIZE_CAP} "
            f"(matrix is {size}x{size}); use --method fekete"
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
def verify(family, rank, m, cache_dir):
    """Cross-check every applicable pipeline and report agreement."""
    fam, rank, m = _resolve_spec(family, rank, m)
    legs = _legs(fam, rank, m, _cache_dir(cache_dir))
    if "oracle" in legs:
        from . import engine

        if _group_order(fam, rank, m) > engine.ORACLE_LIMIT:
            del legs["oracle"]
    results = {name: leg() for name, leg in sorted(legs.items())}
    for result in results.values():
        _check_invariants(result, fam, rank, m)

    names = list(results)
    reference_name = names[0]
    reference = results[reference_name]
    first_diff = None
    for name in names[1:]:
        other = results[name]
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
        click.echo(f"{system_label(fam, rank, m)}: {' = '.join(names)} (all legs agree)")
    else:
        click.echo(f"{system_label(fam, rank, m)}: pipelines disagree at {first_diff['entry']}")
        raise NegativeResult("pipelines disagree")


@main.command()
@_with_common
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json")
def ntable(family, rank, m, cache_dir, fmt):
    """Compute (and cache) the two-sided ascent-count table."""
    fam, rank, m = _resolve_spec(family, rank, m)
    order = _group_order(fam, rank, m)
    cache = _cache_dir(cache_dir)
    if "enumeration" in _legs(fam, rank, m, cache):
        table = _cached_ntable(build_system(fam, rank, m), cache)
    else:
        table = dihedral_ntable(m)
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
    """Count (generalized) signed contingency matrices at lengths (P, Q),
    both from the closed form."""
    try:
        count = typeb.gscm_count(n, p, q) if gscm else typeb.scm_count_closed(n, p, q)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(str(count))


if __name__ == "__main__":
    main()
