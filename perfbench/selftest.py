"""Self-test of the benchmark's checkers.

Forged outputs go through the same recording path as real jobs.  Each forgery
(a wrong table, a wrong minors_checked, a forged witness, a non-zero exit)
must count as a failed operation and keep no time; each genuine output must
count as a success.  run.py calls `problems()` before every run and refuses to
measure if it reports any.  Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from workloads import (
    Job,
    Tally,
    fekete_count,
    golden_table,
    load_golden,
    perturbed_table,
    tp_negative,
    tp_positive,
    typeb_table,
)


def _matrix_out(grid, pipeline):
    return json.dumps({"pipeline": pipeline, "matrix": [[str(x) for x in r] for r in grid]})


def _cert_out(verdict, method, minors, witness=None):
    return json.dumps({"verdict": verdict, "method": method,
                       "minors_checked": minors, "witness": witness})


def _cases(golden):
    from metamatrix.exactlinear import Matrix, bareiss_det

    e6 = Job("e6", (), golden_table(golden["E6"], "enumeration"))
    wrong = [row[:] for row in golden["E6"]]
    wrong[1][1] += 1
    yield "genuine golden table", e6, 0, _matrix_out(golden["E6"], "enumeration"), True
    yield "wrong table", e6, 0, _matrix_out(wrong, "enumeration"), False
    yield "non-zero exit", e6, 2, _matrix_out(golden["E6"], "enumeration"), False

    b3 = [[48, 72, 26, 1], [72, 120, 51, 3], [26, 51, 28, 3], [1, 3, 3, 1]]
    b3_wrong = [row[:] for row in b3]
    b3_wrong[0][0] = 47
    b = Job("b3", (), typeb_table(3))
    yield "type-B invariants hold", b, 0, _matrix_out(b3, "formula"), True
    yield "type-B M_00 wrong", b, 0, _matrix_out(b3_wrong, "formula"), False

    fek = Job("fekete", (), tp_positive("fekete", fekete_count(25)))
    yield "genuine certificate", fek, 0, _cert_out("totally-positive", "fekete", 5525), True
    yield "wrong minors_checked", fek, 0, _cert_out("totally-positive", "fekete", 5524), False

    # the symmetric Pascal matrix C(i+j, i) is totally positive
    pascal = [[math.comb(i + j, i) for j in range(10)] for i in range(10)]
    grid, (rows, cols), stop = perturbed_table(pascal, random.Random(0))
    value = bareiss_det(Matrix.from_rows([[grid[i][j] for j in cols] for i in rows]))
    neg = Job("negative", (), tp_negative(grid, (rows, cols), stop))

    def witness(minor):
        return {"rows": list(rows), "cols": list(cols), "minor": str(minor)}

    yield ("genuine witness", neg, 1,
           _cert_out("not-totally-positive", "fekete", stop, witness(value)), True)
    yield ("forged witness", neg, 1,
           _cert_out("not-totally-positive", "fekete", stop, witness(value - 1)), False)
    yield ("negative verdict with exit 0", neg, 0,
           _cert_out("not-totally-positive", "fekete", stop, witness(value)), False)
    yield "crash, no output", neg, 1, "Traceback (most recent call last):", False


def problems(golden: dict) -> list[str]:
    found = []
    for label, job, code, stdout, genuine in _cases(golden):
        tally = Tally()
        tally.record(job, code, stdout, wall=1.0)
        counted_ok = tally.failed == 0 and tally.walls.get(job.name) == [1.0]
        counted_failed = tally.failed == 1 and job.name not in tally.walls
        if genuine and not counted_ok:
            found.append(f"{label}: rejected ({tally.failures})")
        if not genuine and not counted_failed:
            found.append(f"{label}: not counted as a failed operation")
    return found


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    found = problems(load_golden(root / "tests" / "golden.py"))
    for problem in found:
        print(problem, file=sys.stderr)
    print("checker self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
