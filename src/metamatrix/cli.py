"""Command-line frontend: compute, check-tp, verify, ntable, scm-count.

Exit codes: 0 success / totally positive, 1 verified negative result,
2 usage or parse error, 3 resource limit (`engine.ORACLE_LIMIT`), 4 internal
error (an unexpected exception, reported in one line).  A parse error (an
unknown command or option, a missing or malformed value) is argparse's: a
`usage:` line and the message on stderr.  Every other error prints one
`Error: <msg>` line.  All big integers are read and emitted as decimal
strings so output is lossless at any magnitude: the CLI lifts Python's
int/str digit limit when it runs; a JSON number is read from its literal,
never through a float.  Matrices are lists of rows; `check-tp` reads its
grid or JSON matrix through `_parse_matrix_text` alone, which refuses a
decimal exponent beyond `MAX_EXPONENT`.  `scm-count` answers any n from the
closed form.

`_legs` alone chooses a system's pipelines: `formula` for B at any rank and
I2 at any m, `enumeration` and `oracle` where the catalog has the system.
The results are plain data: the CLI names the leg it ran (`"pipeline"`) and
the certifier (`"method"`; `auto` runs `fekete`) in what it prints.
N-tables are cached only under `--cache-dir`; without it a run writes
nothing, so what it does depends on its arguments alone.

The CLI runs on the standard library, and each command imports only the
modules it uses: `tp` and `fractions` for `check-tp`, `typeb` for the type-B
formula and `scm-count`, `coxeter` and `engine` where a command enumerates,
runs the oracle or reads the cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .tables import (
    _RANKS,
    EnumerationLimit,
    Metamatrix,
    NTable,
    UnsupportedSystem,
    _group_order,
    check_catalog,
    dihedral_ntable,
    in_catalog,
    metamatrix_from_ntable,
    metamatrix_invariant_failure,
    ntable_invariant_failure,
    system_label,
)


class UsageError(Exception):
    """A usage error found after parsing: exit code 2."""


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


def _cached_ntable(system, cache: str | None) -> NTable:
    """The N-table of `system`: computed when no cache directory is given,
    else read from it or computed and then cached there."""
    from . import engine

    if not cache:
        return engine.accumulate_ntable(system)
    label = system_label(system.family, system.rank, system.m)
    path = Path(cache) / f"{label}.ntable.json"
    if path.exists():
        table = _read_cached(path, system)
        if table is not None:
            return table
    table = engine.accumulate_ntable(system)
    try:
        payload = _ntable_payload(system.family, system.rank, system.m, system.order, table)
        _write_atomic(path, json.dumps(payload))
    except OSError as exc:
        print(f"warning: N-table not cached: {exc}", file=sys.stderr)
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


def _emit_matrix(entries, fmt: str, family=None, rank=None, m=None, pipeline=None):
    if fmt == "json":
        matrix = [[str(x) for x in row] for row in entries]
        payload = {"family": family, "rank": rank, "m": m, "pipeline": pipeline, "matrix": matrix}
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        for row in entries:
            print(",".join(str(x) for x in row))
    else:
        width = max(len(str(x)) for row in entries for x in row)
        for row in entries:
            print(" ".join(str(x).rjust(width) for x in row))


def _resolve_spec(family: str, rank: int | None, m: int | None) -> tuple[str, int, int | None]:
    fam = family.upper()
    if fam not in _RANKS:
        raise UsageError(f"unknown family {family!r}")
    if fam == "I2":
        if m is None:
            raise UsageError("family I2 requires --m")
        if m < 2:
            raise UsageError("I2 requires m >= 2")
        if rank not in (None, 2):
            raise UsageError(f"family I2 has rank 2, not {rank}")
        return fam, 2, m
    if m is not None:
        raise UsageError("--m applies only to family I2")
    if rank is None:
        raise UsageError("--rank is required for this family")
    if rank < 1:
        raise UsageError("--rank must be positive")
    return fam, rank, None


def _enumeration(system, cache: str | None) -> Metamatrix:
    from . import engine

    # engine's name for the transform is the one perfbench/tracing.py times
    return engine.metamatrix_from_ntable(_cached_ntable(system, cache))


def _type_b(rank: int) -> Metamatrix:
    from . import typeb

    return typeb.metamatrix_typeb(rank)


def _oracle(system) -> Metamatrix:
    from . import engine

    # its double-coset table raises EnumerationLimit above engine.ORACLE_LIMIT
    return engine.metamatrix_bruteforce(system)


def _legs(fam: str, rank: int, m: int | None, cache: str | None) -> dict[str, Callable[[], Metamatrix]]:
    """The pipelines that apply to the system, each a zero-argument callable
    that computes its metamatrix: `formula` for B at any rank and I2 at any
    m, `enumeration` (from the N-table, cached under `cache` when given) and
    `oracle` exactly when the system is `in_catalog`.  A system with no
    pipeline raises UnsupportedSystem."""
    legs = {}
    if fam == "B":
        legs["formula"] = lambda: _type_b(rank)
    elif fam == "I2":
        legs["formula"] = lambda: metamatrix_from_ntable(dihedral_ntable(m))
    if in_catalog(fam, rank, m):
        legs["enumeration"] = lambda: _enumeration(build_system(fam, rank, m), cache)
        legs["oracle"] = lambda: _oracle(build_system(fam, rank, m))
    if not legs:
        check_catalog(fam, rank, m)  # raises, with the catalog
    return legs


def _check_invariants(result: Metamatrix, pipeline: str, fam: str, rank: int,
                      m: int | None) -> None:
    """Raise AssertionError (exit 4: a defect, not a verdict) when `result`,
    computed by `pipeline`, fails the metamatrix invariants of the group it
    claims to describe."""
    failure = metamatrix_invariant_failure(result, _group_order(fam, rank, m))
    if failure is not None:
        raise AssertionError(f"{system_label(fam, rank, m)} {pipeline}: {failure}")


# --method value -> the leg it names
_METHODS = {"formula": "formula", "enumerate": "enumeration", "oracle": "oracle"}


def compute(args) -> int:
    """Compute the metamatrix of a Coxeter group."""
    fam, rank, m = _resolve_spec(args.family, args.rank, args.m)
    legs = _legs(fam, rank, m, args.cache_dir)
    method = args.method
    if method is None:
        method = "formula" if "formula" in legs else "enumerate"
    pipeline = _METHODS[method]
    if pipeline not in legs:
        applicable = " or ".join(option for option, leg in _METHODS.items() if leg in legs)
        raise UsageError(
            f"--method {method} does not apply to {system_label(fam, rank, m)}; "
            f"use --method {applicable}"
        )
    result = legs[pipeline]()
    _check_invariants(result, pipeline, fam, rank, m)
    _emit_matrix(result.entries, args.fmt, fam, rank, m, pipeline)
    return 0


# the largest decimal exponent, in magnitude, that a check-tp matrix entry may carry
MAX_EXPONENT = 1000


def _parse_matrix_text(text: str) -> list[list[Fraction]]:
    """The rows of a JSON or whitespace-grid matrix of N rows of N entries.
    Raises ValueError, naming the line (grid) or row (JSON) and the column,
    both counted from 1, on input that is not such a matrix, and on an entry
    whose decimal exponent exceeds MAX_EXPONENT in magnitude, before its
    value is built.  The message quotes the bad token, cut to its first
    characters and its length when it is long."""
    import re
    from fractions import Fraction

    if text.lstrip()[:1] in ("{", "["):
        # numbers are read from their literals, not rounded through float
        payload = json.loads(text, parse_float=str, parse_int=str)
        if isinstance(payload, dict) and "matrix" not in payload:
            raise ValueError('the JSON object has no "matrix" key')
        grid = payload["matrix"] if isinstance(payload, dict) else payload
        if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
            raise ValueError("the matrix must be a list of rows")
        token_rows = [(f"row {r}", [str(x) for x in row]) for r, row in enumerate(grid, start=1)]
    else:
        token_rows = [(f"line {ln}", line.split())
                      for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not token_rows:
        raise ValueError("the matrix has no rows")
    # the exponent as Fraction reads it: signed, with _ separators, before
    # trailing whitespace
    exponent = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
    size = len(token_rows)
    rows = []
    for place, tokens in token_rows:
        if len(tokens) != size:
            raise ValueError(f"{place}: expected {size} entries (the matrix has {size} rows), "
                             f"got {len(tokens)}")
        row = []
        for col, token in enumerate(tokens, start=1):
            found = exponent.search(token)
            if found and abs(int(found[1])) > MAX_EXPONENT:
                problem = f"exponent beyond ±{MAX_EXPONENT} in"
            else:
                try:
                    row.append(Fraction(token))
                    continue
                except ZeroDivisionError:
                    problem = "zero denominator in"
                except ValueError:
                    problem = "cannot parse"
            shown = repr(token) if len(token) <= 40 else (
                f"{token[:40]!r}... ({len(token)} characters)")
            raise ValueError(f"{place}, column {col}: {problem} {shown}")
        rows.append(row)
    return rows


def check_tp(args) -> int:
    """Certify total positivity of a matrix (file path or '-' for stdin)."""
    from . import tp

    try:
        text = sys.stdin.read() if args.source == "-" else Path(args.source).read_text()
        matrix = _parse_matrix_text(text)
    except (OSError, ValueError, RecursionError) as exc:  # deep JSON nesting recurses
        raise UsageError(f"cannot read matrix: {exc}")
    size = len(matrix)
    method = "fekete" if args.method == "auto" else args.method
    if method == "all-minors" and size > tp.ALL_MINORS_SIZE_CAP:
        raise UsageError(
            f"--method all-minors is capped at size {tp.ALL_MINORS_SIZE_CAP} "
            f"(matrix is {size}x{size}); use --method fekete"
        )
    cert = tp.all_minors_positive(matrix) if method == "all-minors" else tp.fekete_check(matrix)
    witness = cert.witness
    if witness is not None:
        witness = {"rows": list(witness.rows), "cols": list(witness.cols),
                   "minor": str(witness.minor)}
    payload = {
        "verdict": "totally-positive" if cert.is_totally_positive else "not-totally-positive",
        "method": method,
        "minors_checked": cert.minors_checked,
        "witness": witness,
    }
    print(json.dumps(payload, indent=2))
    return 0 if cert.is_totally_positive else 1


def verify(args) -> int:
    """Cross-check every applicable pipeline and report agreement; a system
    with one pipeline is reported as such, with nothing compared."""
    fam, rank, m = _resolve_spec(args.family, args.rank, args.m)
    legs = _legs(fam, rank, m, args.cache_dir)
    if "oracle" in legs:
        from . import engine

        if _group_order(fam, rank, m) > engine.ORACLE_LIMIT:
            del legs["oracle"]
    results = {name: leg() for name, leg in sorted(legs.items())}
    for name, result in results.items():
        _check_invariants(result, name, fam, rank, m)

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
        "agree": first_diff is None if len(names) > 1 else None,
        "first_difference": first_diff,
    }
    print(json.dumps(report, indent=2))
    if len(names) == 1:
        print(f"{system_label(fam, rank, m)}: {reference_name} (one leg, nothing compared)")
    elif first_diff is None:
        print(f"{system_label(fam, rank, m)}: {' = '.join(names)} (all legs agree)")
    else:
        print(f"{system_label(fam, rank, m)}: pipelines disagree at {first_diff['entry']}")
        return 1
    return 0


def ntable(args) -> int:
    """Compute the two-sided ascent-count table: I2 from its closed form,
    every other system by enumeration (cached under --cache-dir)."""
    fam, rank, m = _resolve_spec(args.family, args.rank, args.m)
    order = _group_order(fam, rank, m)
    if fam == "I2":
        table = dihedral_ntable(m)
    else:
        table = _cached_ntable(build_system(fam, rank, m), args.cache_dir)
    if args.fmt == "json":
        print(json.dumps(_ntable_payload(fam, rank, m, order, table), indent=2))
    else:
        _emit_matrix(table.counts, args.fmt)
    return 0


def scm_count(args) -> int:
    """Count (generalized) signed contingency matrices at lengths (P, Q),
    both from the closed form."""
    from . import typeb

    count = typeb.gscm_count if args.gscm else typeb.scm_count_closed
    try:
        value = count(args.n, args.p, args.q)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(value)
    return 0


def positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Exact contingency metamatrices of finite Coxeter groups.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    formats = ["json", "csv", "pretty"]

    def command(name: str, run: Callable[[argparse.Namespace], int], system: bool = True):
        doc = run.__doc__
        sub = commands.add_parser(
            name, help=doc.split("\n\n")[0], description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        if system:
            sub.add_argument("--family", required=True, help=", ".join(_RANKS))
            sub.add_argument("--rank", type=int)
            sub.add_argument("--m", type=int, help="bond order for I2")
            sub.add_argument("--workers", type=positive_int, help="accepted for compatibility; "
                             "has no effect (the enumeration runs in one process)")
            sub.add_argument("--cache-dir", help="N-table cache directory (default: none)")
        return sub

    sub = command("compute", compute)
    sub.add_argument("--method", choices=list(_METHODS),
                     help="pipeline (default: formula for B/I2, enumerate otherwise)")
    sub.add_argument("--format", dest="fmt", choices=formats, default="pretty")
    sub = command("check-tp", check_tp, system=False)
    sub.add_argument("source")
    sub.add_argument("--method", choices=["auto", "all-minors", "fekete"], default="auto",
                     help="certifier (default: auto, which runs fekete)")
    command("verify", verify)
    command("ntable", ntable).add_argument("--format", dest="fmt", choices=formats, default="json")
    sub = command("scm-count", scm_count, system=False)
    for name in "npq":
        sub.add_argument(name, type=int)
    sub.add_argument("--gscm", action="store_true", help="count generalized matrices (closed form)")
    return parser


def main(args=None, prog_name=None):
    """The `metamatrix` command.  Parses `args` (default: the command line),
    runs the command, and exits with its code; it maps an unsupported system
    to exit 2, an enumeration limit to exit 3, and any other exception that
    no command handles to code 4 and a one-line message, not a traceback."""
    # exact decimal input and output at any length: lift the 4,300-digit
    # int/str limit (releases before 3.10.7 have neither the limit nor the setter)
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    parsed = _parser(prog_name or "metamatrix").parse_args(args)  # exits 0 or 2 itself
    try:
        code = parsed.run(parsed)
    except (UsageError, UnsupportedSystem) as exc:
        code, message = 2, str(exc)
    except EnumerationLimit as exc:
        code, message = 3, str(exc)
    except Exception as exc:
        detail = " ".join(str(exc).split())  # one line, whatever the message
        code, message = 4, f"internal error: {type(exc).__name__}: {detail}"
    else:
        message = None
    if message is not None:
        print(f"Error: {message}", file=sys.stderr)
    sys.exit(code)


# click.testing.CliRunner().invoke(main, args) calls main.main(args=..., prog_name=...)
main.name = "metamatrix"
main.main = main


if __name__ == "__main__":
    main()
