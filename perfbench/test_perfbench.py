"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["job", 0.0, 10.0, None, 0],
        ["cli.run", 1.0, 9.0, 0, 0],
        ["quad.integrate_simplex", 2.0, 6.0, 1, 0],
        ["forms.pullback_top_many", 3.0, 4.0, 2, 0],
        ["forms.pullback_top_many", 4.5, 7.0, 2, 0],  # runs past its parent: clipped
        # two pool workers under one parent overlap: the union counts once
        ["periods.chain_integral", 6.5, 8.0, 1, 0],
        ["periods.chain_integral", 7.0, 8.5, 1, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.5, 1.0, 2.5, 1.5, 1.5])
    assert tracing.merged_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_oracle_flags_a_perturbed_answer():
    v = oracle.Verdict()
    v.quad("exact", 1.0, 1e-12, True, 1.0)
    assert not v.problems
    v.quad("off", 1.0 + 1e-9, 1e-12, True, 1.0)
    assert len(v.problems) == 1 and v.records[1].known and not v.records[1].bound_holds()


@pytest.fixture(scope="module")
def periods_setup(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("periods-circle"))
    _, pl, jobs = run.setup(WORKLOADS["periods-circle"], 7, outdir)
    return pl, {job.name: job for job in jobs}


def test_oracle_passes_the_program_and_flags_a_perturbed_known_answer(periods_setup):
    pl, jobs = periods_setup
    job = jobs["periods-smooth"]
    outcome = oracle.run_cli(pl.cli.run, job.argv)
    assert not oracle.judge(job, outcome).problems
    perturbed = oracle.Job(
        job.name, oracle.check_period_report([[oracle.TWO_PI + 1e-6, 0.0]] * 3), argv=job.argv
    )
    verdict = oracle.judge(perturbed, outcome)
    assert len(verdict.problems) == 3


def test_oracle_counts_a_wrong_exit_code(periods_setup):
    pl, jobs = periods_setup
    job = jobs["volume-sqrt-graph"]
    wrong = oracle.Job(job.name, job.check, argv=job.argv, expect_exit=1)
    assert oracle.judge(wrong, oracle.run_cli(pl.cli.run, job.argv)).problems


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    tracer = tracing.Tracer()
    _, pl, jobs = run.setup(WORKLOADS["glue-disk"], 3, str(tmp_path), tracer)
    patched = tracer.patched()
    assert len(patched) > 30
    before = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a in patched}
    tally = run.Tally()
    run.run_passes(pl, jobs, 0.0, 1, tally, tracer)
    assert tracer.spans and tally.attempted == len(jobs)
    tracer.uninstall()
    assert not tracer.patched()
    fresh = run.import_periodlab()
    for owner, attr in patched:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is not before[(id(owner), attr)], f"{owner}.{attr} still wrapped"
        assert getattr(now, "__wrapped__", None) is None, f"{owner}.{attr} still wrapped"
        mod = getattr(fresh, owner.__name__.rsplit(".", 1)[-1], None) if not isinstance(owner, type) else None
        if mod is not None:
            # the restored name is what a fresh import binds
            assert now.__qualname__ == getattr(mod, attr).__qualname__
    assert not tracer.active


def test_layer_metrics_cover_every_declared_per_layer_metric(tmp_path):
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    tracer = tracing.Tracer()
    _, pl, jobs = run.setup(WORKLOADS["homology-sd"], 1, str(tmp_path), tracer)
    run.run_passes(pl, jobs[-2:], 0.0, 1, run.Tally(), tracer)
    tracer.uninstall()
    assert set(tracer.layer_metrics(1, 1.0, 1.0)) == declared


def test_seed_changes_inputs_but_not_answers(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for path, seed in ((a, 1), (b, 2)):
        WORKLOADS["stokes-cones"](seed, str(path)).generate()
    assert (a / "space.json").read_text() != (b / "space.json").read_text()
    again = tmp_path / "c"
    again.mkdir()
    WORKLOADS["stokes-cones"](1, str(again)).generate()
    assert (a / "space.json").read_text() == (again / "space.json").read_text()


def test_scaled_times_quantiles_and_tail_rank():
    ref = run.REF_KERNEL_S
    # a job measured while the kernel ran twice as slow counts half its time
    assert run.scaled([[0.2, 0.4]], [[2 * ref, ref]]) == [pytest.approx([0.1, 0.4])]
    assert run.quantile([3.0, 1.0, 2.0, 4.0], 0.5) == pytest.approx(2.5)
    sample = [float(x) for x in range(63)]  # seven passes of nine jobs
    tail = run.quantile(sample, run.tail_quantile(9, 7))
    assert sum(1 for x in sample if x > tail) == 10
    # twice the passes: still ten beyond per seven passes, so twenty
    tail = run.quantile([float(x) for x in range(126)], run.tail_quantile(9, 7))
    assert sum(1 for x in range(126) if x > tail) == 20
