"""Jobs, their known answers, and the verdict on each outcome.

A job is one CLI command (run in process through ``periodlab.cli.run``) or
one library call.  Every job carries what a correct program returns: the
exit code, and a check that reads the output and compares each value with
its known answer.  A job that deviates counts as failed.  Jobs that exercise
a defect recorded in the roadmap carry its description in ``defect``; they
count as failed like any other, but do not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

# Values are compared with |value - answer| <= error_estimate + FLOOR.
# FLOOR is the float-rounding floor: about a hundred ulps of 2*pi, the
# largest answer used here, so rounding alone never counts as a miss.
FLOOR = 1e-13


@dataclass
class QuadRecord:
    """One quadrature result as the program reported it."""

    value: float
    error_estimate: float
    converged: bool | None  # None: a sum of results, not a QuadResult itself
    answer: float | None = None  # known exact value, when there is one
    expect_no: bool = False  # the expected verdict is "no": excluded from convergence

    @property
    def known(self) -> bool:
        return self.answer is not None

    @property
    def abs_err(self) -> float:
        return abs(self.value - self.answer)

    def bound_holds(self) -> bool:
        return self.abs_err <= self.error_estimate + FLOOR

    def rel_err(self) -> float:
        return self.abs_err / max(1.0, abs(self.answer))


@dataclass
class Outcome:
    """What one job produced: exit code and stdout for CLI jobs, the return
    value for library jobs, and any exception that escaped."""

    exit_code: int | None = None
    stdout: str = ""
    value: object = None
    error: BaseException | None = None


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def expect(self, cond: bool, message: str):
        if not cond:
            self.problems.append(message)

    def quad(self, label: str, value, err, converged, answer=None, expect_no=False):
        rec = QuadRecord(float(value), float(err), converged, answer, expect_no)
        self.records.append(rec)
        if rec.known and not rec.bound_holds():
            self.problems.append(
                f"{label}: |{rec.value!r} - {answer!r}| = {rec.abs_err:.3e} "
                f"exceeds error estimate {rec.error_estimate:.3e}"
            )
        return rec


@dataclass
class Job:
    """``argv`` for a CLI job, else ``call`` (no arguments) for a library job.
    ``check(outcome, verdict)`` records values and problems."""

    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    expect_exit: int = 0
    defect: str = ""


def run_cli(cli_run, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome.exit_code = cli_run(list(argv))
    except Exception as exc:  # an uncaught exception is a job outcome, not a crash
        outcome.error = exc
    outcome.stdout = out.getvalue()
    return outcome


def run_call(call) -> Outcome:
    outcome = Outcome()
    try:
        outcome.value = call()
    except Exception as exc:
        outcome.error = exc
    return outcome


def judge(job: Job, outcome: Outcome) -> Verdict:
    v = Verdict()
    if outcome.error is not None:
        v.problems.append(f"uncaught {type(outcome.error).__name__}: {outcome.error}")
        return v
    if job.argv is not None:
        v.expect(
            outcome.exit_code == job.expect_exit,
            f"exit code {outcome.exit_code}, expected {job.expect_exit}",
        )
        if outcome.exit_code != job.expect_exit:
            return v
    try:
        job.check(outcome, v)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        v.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return v


def report(outcome: Outcome) -> dict:
    return json.loads(outcome.stdout)


# ---------------------------------------------------------------------------
# Checks shared by the workloads.
# ---------------------------------------------------------------------------


def check_period_report(answers):
    """``periods`` CLI report against a matrix of exact answers.  The report
    has one converged flag for the whole matrix; every entry carries it."""

    def check(outcome, v):
        pm = report(outcome)["results"]["periods"]
        for i, row in enumerate(answers):
            for j, ans in enumerate(row):
                v.quad(
                    f"periods[{pm['cycles'][i]}][{pm['forms'][j]}]",
                    pm["values"][i][j],
                    pm["error_estimates"][i][j],
                    pm["converged"],
                    ans,
                )
        v.expect(pm["converged"], "period matrix did not converge")

    return check


def check_volume_report(verdict, answers):
    """``check-volume`` report: the verdict and the known volumes, keyed by
    the report's ``dx_*`` index names."""

    def check(outcome, v):
        vol = report(outcome)["results"]["volume"]
        v.expect(vol["verdict"] == verdict, f"verdict {vol['verdict']}, expected {verdict}")
        for key, r in vol["per_index"].items():
            v.quad(
                key,
                r["value"],
                r["error_estimate"],
                r["converged"],
                answers.get(key),
                expect_no=verdict == "no" and r["diverging"],
            )

    return check


def check_stokes_report(answer):
    """``check-stokes`` report for one simplex: pass verdict, and both sides
    against the exact integral of d(omega)."""

    def check(outcome, v):
        st = report(outcome)["results"]["stokes"]
        v.expect(st["verdict"] == "pass", f"verdict {st['verdict']}, expected pass")
        lhs = st["lhs"]
        v.quad("lhs", lhs["value"], lhs["error_estimate"], lhs["converged"], answer)
        faces = st["rhs_faces"]
        for k, r in enumerate(faces):
            v.quad(f"face_{k}", r["value"], r["error_estimate"], r["converged"])
        rhs_err = sum(r["error_estimate"] for r in faces)
        v.quad("rhs", st["rhs"], rhs_err, None, answer)

    return check


def check_chain_stokes_report(answer):
    def check(outcome, v):
        st = report(outcome)["results"]["stokes"]
        v.expect(st["verdict"] == "pass", f"verdict {st['verdict']}, expected pass")
        lhs_err = 0.0
        for term in st["per_term"]:
            lhs = term["report"]["lhs"]
            lhs_err += abs(term["coeff"]) * lhs["error_estimate"]
            v.quad("term_lhs", lhs["value"], lhs["error_estimate"], lhs["converged"])
        v.quad("lhs", st["lhs"], lhs_err, None, answer)

    return check


def check_quad_result(answer):
    """A library call returning a QuadResult."""

    def check(outcome, v):
        r = outcome.value
        v.quad("integral", r.value, r.error_estimate, r.converged, answer)

    return check


TWO_PI = 2.0 * math.pi
