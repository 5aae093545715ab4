import argparse
import collections
import functools
import hashlib
import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_chains import random_interior_point

from periodlab import chains as ch
from periodlab import cli
from periodlab import expr as ex
from periodlab import glue as gl
from periodlab import homology as hm
from periodlab import manifest as mf
from periodlab.quad import QuadConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "periodlab", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        **kw,
    )


def test_load_circle_manifest():
    man = mf.load_manifest(str(MANIFESTS / "circle.json"))
    assert set(man.chains) == {"gamma", "gamma_semialg"}
    assert man.forms["dtheta"].degree == 1
    assert man.simplices["sqrt_graph"].dim == 1


def test_duplicate_name_rejected_with_path():
    data = {
        "schema": "periodlab/1",
        "ambient_dim": 1,
        "simplices": [
            {"name": "x", "dim": 1, "components": ["t"]},
            {"name": "x", "dim": 1, "components": ["t"]},
        ],
    }
    with pytest.raises(mf.ManifestError) as err:
        mf.Manifest(data)
    assert "/simplices/1/name" in str(err.value)


def test_a_name_is_taken_across_sections():
    simplex = {"name": "x", "dim": 1, "components": ["t"]}

    def chain(name):
        return {"name": name, "terms": [{"simplex": "x"}]}

    data = {"schema": "periodlab/1", "ambient_dim": 1, "simplices": [simplex], "chains": [chain("x")]}
    with pytest.raises(mf.ManifestError) as err:
        mf.Manifest(data)
    assert str(err.value) == "/chains/0/name: duplicate name 'x'"
    # a name taken two sections earlier: a complex named like the chain
    data["chains"] = [chain("c")]
    data["complexes"] = [{"name": "c", "simplices": [[0, 1]]}]
    with pytest.raises(mf.ManifestError) as err:
        mf.Manifest(data)
    assert str(err.value) == "/complexes/0/name: duplicate name 'c'"
    del data["complexes"]
    assert set(mf.Manifest(data).chains) == {"c"}


def test_unresolved_reference_rejected():
    data = {
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "chains": [{"name": "c", "terms": [{"simplex": "ghost", "coeff": 1}]}],
    }
    with pytest.raises(mf.ManifestError) as err:
        mf.Manifest(data)
    assert "/chains/0/terms/0/simplex" in str(err.value)


def test_bad_expression_flagged_with_path():
    data = {
        "schema": "periodlab/1",
        "ambient_dim": 1,
        "simplices": [{"name": "x", "dim": 1, "components": ["t +"]}],
    }
    with pytest.raises(mf.ManifestError) as err:
        mf.Manifest(data)
    assert "/simplices/0/components" in str(err.value)


def test_wrong_schema_rejected():
    with pytest.raises(mf.ManifestError):
        mf.Manifest({"schema": "periodlab/99"})


def test_evaluator_descriptions_roundtrip():
    sigma = ch.ExprMap(["t", "sqrt(t)"], 1)
    cone = ch.Cone(sigma)
    composed = ch.Composed(cone, ch.face_map(2, 1))
    rng = np.random.default_rng(0)
    for ev in (sigma, cone, composed, ch.face_map(3, 2)):
        desc = mf.evaluator_to_dict(ev)
        desc2 = json.loads(json.dumps(desc))
        man = mf.Manifest({"schema": "periodlab/1", "derived_simplices": [{"name": "ev", "map": desc2}]})
        back = man.simplices["ev"]
        assert back.dim == ev.dim and back.ambient == ev.ambient
        for _ in range(15):
            p = random_interior_point(ev.dim, rng)
            assert np.abs(back.evaluate(p) - ev.evaluate(p)).max() <= 1e-15


def test_glued_evaluator_roundtrip():
    def semi(theta0):
        return gl.Triangulation(
            hm.SimplicialComplex([(0, 1), (1, 2)]),
            {
                (0, 1): ch.ExprMap(
                    [f"cos({theta0} + pi/2*t)", f"sin({theta0} + pi/2*t)"], 1
                ),
                (1, 2): ch.ExprMap(
                    [f"cos({theta0} + pi/2 + pi/2*t)", f"sin({theta0} + pi/2 + pi/2*t)"], 1
                ),
                (0,): ch.ExprMap([f"cos({theta0})", f"sin({theta0})"], 0),
                (1,): ch.ExprMap([f"cos({theta0} + pi/2)", f"sin({theta0} + pi/2)"], 0),
                (2,): ch.ExprMap([f"cos({theta0} + pi)", f"sin({theta0} + pi)"], 0),
            },
            marks={"B": {(0,), (2,)}},
        )

    upper = semi("0")
    lower = semi("pi")
    G = gl.glue(upper, lower, {(0,): (2,), (2,): (0,)})
    data = mf.triangulation_to_manifest("glued", G)
    man = mf.Manifest(json.loads(json.dumps(data)))
    back = man.triangulations["glued"]
    rng = np.random.default_rng(1)
    for s, ev in G.evaluators.items():
        ev2 = back.evaluators[s]
        for _ in range(10):
            p = random_interior_point(ev.dim, rng)
            assert np.abs(ev2.evaluate(p) - ev.evaluate(p)).max() <= 1e-10
    assert back.marks["B"] == G.marks["B"]


def test_triangulation_manifest_keeps_lower_dimensional_maximal_simplices():
    # the edge (2, 3) is maximal; a manifest listing only the triangles drops
    # it from the complex, and its evaluator no longer re-ingests
    K = hm.SimplicialComplex([(0, 1, 2), (2, 3)])
    T = gl.Triangulation(K, {(0, 1, 2): ch.AffineSimplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             (2, 3): ch.AffineSimplex([[0.0, 1.0], [1.0, 1.0]])})
    data = json.loads(json.dumps(mf.triangulation_to_manifest("T", T)))
    assert data["complexes"][0]["simplices"] == [[2, 3], [0, 1, 2]]
    back = mf.Manifest(data).triangulations["T"]
    assert back.complex.cells() == K.cells()
    assert {s: ev.key() for s, ev in back.evaluators.items()} == {
        s: ev.key() for s, ev in T.evaluators.items()
    }


def test_canonical_json_fixed_format():
    s = mf.canonical_json({"b": [1.5, 2, True, None], "a": "x"})
    assert s == '{"a":"x","b":[1.5,2,true,null]}\n'
    assert mf.canonical_json({"v": 1.0 / 3.0}) == '{"v":0.33333333333333331}\n'


def _reference_canon(obj, out: list):
    """The report writer as a chain of isinstance tests, the reference for
    the bytes that ``canonical_json`` writes."""
    if isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _reference_canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _reference_canon(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(f"{obj:.17g}" if math.isfinite(obj) else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def _reference_json(obj) -> str:
    out: list = []
    _reference_canon(obj, out)
    return "".join(out) + "\n"


class _Tag(str):
    pass


class _Count(int):
    pass


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600\ud800'), st.characters()))
_JSON_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63) + 2),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _TEXT.map(_Tag),
    st.integers().map(_Count),
)
_UNSUPPORTED = st.sampled_from([{1, 2}, b"x", 1j, np.float32(0.5), np.bool_(True), np.array([1.0]), object()])


def _json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(_TEXT, inner, max_size=5),
            st.dictionaries(st.integers(), inner, max_size=3),
            st.dictionaries(_TEXT, inner, max_size=3).map(collections.OrderedDict),
        ),
        max_leaves=25,
    )


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(_json_values(_JSON_LEAVES) | _json_values(_JSON_LEAVES | _UNSUPPORTED))
def test_canonical_json_writes_the_bytes_of_the_reference_writer(obj):
    try:
        want = _reference_json(obj)
    except TypeError as err:
        with pytest.raises(TypeError) as got:
            mf.canonical_json(obj)
        assert str(got.value) == str(err)
    else:
        assert mf.canonical_json(obj) == want


def test_cli_homology_exit_codes_and_values():
    res = run_cli(["homology", "manifests/torus.json", "--complex", "T7", "--deterministic"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["results"]["homology"]["betti"] == [1, 2, 1]
    res = run_cli(["homology", "manifests/complexes.json", "--complex", "rp2_6", "--deterministic"])
    out = json.loads(res.stdout)
    assert out["results"]["homology"]["betti"] == [1, 0, 0]
    assert out["results"]["homology"]["torsion"]["1"] == [2]


# sha256 of the reports of RP^2 (torsion [2]) and of the 7-vertex torus (two
# H_1 generators) after one subdivision: a changed pivot order, lift or
# writer changes the representatives or the bytes
PINNED_HOMOLOGY_REPORTS = {
    ("complexes.json", "rp2_6"): "e7b5b3f776322bc7db3748da5d575024d3492428a4102502b5da4bcca08bf6c5",
    ("torus.json", "T7"): "26217ef8f32392a3df0532c08dad00d34c736a7061d8a92d4af1a4e48ebfcbe7",
}


@pytest.mark.parametrize("manifest, name", sorted(PINNED_HOMOLOGY_REPORTS))
def test_cli_homology_report_of_a_subdivision_is_pinned(manifest, name, tmp_path, capsys):
    sd = str(tmp_path / "sd.json")
    assert cli.run(["subdivide", str(MANIFESTS / manifest), "--complex", name, "--out", sd]) == 0
    assert cli.run(["homology", sd, "--complex", f"{name}_sd", "--deterministic"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode()).hexdigest() == PINNED_HOMOLOGY_REPORTS[manifest, name]


# sha256 of every manifest the CLI emits, recorded when cli.py still built
# them by hand; "{}" in argv reads as the path of EMPTY_CHAIN
EMPTY_CHAIN = {"schema": "periodlab/1", "ambient_dim": 2, "chains": [{"name": "e", "degree": 1, "terms": []}]}
PINNED_EMITTED_MANIFESTS = {
    "cone sqrt_graph": (["cone", "circle.json", "--simplex", "sqrt_graph"],
                        "f29a0b7d6ea1935edf48092c5c35b0bd06991f6fb1f2572a57c3ffbe4f11bbe6"),
    "cone para": (["cone", "circle.json", "--simplex", "para"],
                  "5d56431d1ea2c50b2742b3e225c38b1b702a6501ac9e0f8e09245ff55bda0cc8"),
    "subdivide gamma": (["subdivide", "circle.json", "--chain", "gamma"],
                        "21122e3db71a56f4c58ee2665dcbe4107e25e8450d3e559b29d41db3195bf7ee"),
    "subdivide gamma_semialg": (["subdivide", "circle.json", "--chain", "gamma_semialg"],
                                "a75f4dca6983e21b3f54ee241d38b42becd5e022a1c2696723dd78ac77379a91"),
    "subdivide square": (["subdivide", "square.json", "--chain", "square"],
                         "3a2b58ba76f3a2d07361af5153c3cc3db989892760fab45ec0bf858a421af878"),
    "subdivide empty chain": (["subdivide", "{}", "--chain", "e"],
                              "9c45cc3fbfe0f38d2f555b4ca888133d1fd226b6856c5bdaf453ceb71bab223d"),
    "subdivide T7": (["subdivide", "torus.json", "--complex", "T7"],
                     "5beb377e6ac38cece52b3ef1800567057608ccea742c10ffff589763a4aa0641"),
    "subdivide rp2_6": (["subdivide", "complexes.json", "--complex", "rp2_6"],
                        "9d1c7907891246acbecf91a94ea08ff263a657c624786c84af5ea985a8f5cb3c"),
    "glue circle halves": (["glue", "circle_upper.json", "circle_lower.json", "--table", "circle_btable.json"],
                           "504f99f8bea9982614f701f58343c163e478976f1fc9ed0a5ccf03bcfb68caf5"),
    # each piece's one triangulation, named
    "glue circle halves by name": (["glue", "circle_upper.json", "circle_lower.json", "--table", "circle_btable.json",
                                    "--t1", "upper", "--t2", "lower"],
                                   "504f99f8bea9982614f701f58343c163e478976f1fc9ed0a5ccf03bcfb68caf5"),
}


@pytest.mark.parametrize("case", sorted(PINNED_EMITTED_MANIFESTS))
def test_cli_emitted_manifest_is_pinned(case, tmp_path):
    argv, digest = PINNED_EMITTED_MANIFESTS[case]
    empty, out = tmp_path / "empty.json", tmp_path / "out.json"
    empty.write_text(json.dumps(EMPTY_CHAIN))
    files = {a: str(MANIFESTS / a) for a in argv if a.endswith(".json")} | {"{}": str(empty)}
    assert cli.run([files.get(a, a) for a in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if argv[1] == "{}":  # an empty subdivision still lists its (no) derived simplices
        assert json.loads(out.read_text())["derived_simplices"] == []


def test_cli_periods_circle():
    res = run_cli(
        ["periods", "manifests/circle.json", "--cycles", "gamma", "--forms", "dtheta",
         "--deterministic"]
    )
    assert res.returncode == 0
    out = json.loads(res.stdout)
    value = out["results"]["periods"]["values"][0][0]
    assert abs(value - 2 * np.pi) <= 1e-6


def test_cli_periods_of_a_0_cycle(tmp_path, capsys):
    # a 0-cycle is closed without a boundary check; its period is the
    # form's value at its points, weighted by their coefficients
    points = tmp_path / "points.json"
    points.write_text(json.dumps({
        "schema": "periodlab/1", "ambient_dim": 2,
        "simplices": [{"name": "p", "dim": 0, "components": ["1", "0"]}],
        "chains": [{"name": "c", "terms": [{"simplex": "p", "coeff": 3}]}],
        "forms": [{"name": "two", "degree": 0, "terms": [{"indices": [], "coeff": "2"}]}],
    }))
    assert cli.run(["periods", str(points), "--cycles", "c", "--forms", "two", "--deterministic"]) == 0
    periods = json.loads(capsys.readouterr().out)["results"]["periods"]
    assert (periods["values"], periods["converged"]) == ([[6]], True)


def test_cli_periods_csv():
    res = run_cli(
        ["periods", "manifests/circle.json", "--cycles", "gamma", "--forms", "dtheta",
         "--output", "csv", "--deterministic"]
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "cycle,dtheta"
    assert lines[1].startswith("gamma,6.28318530717958")


def test_cli_check_stokes_pass_and_input_error():
    res = run_cli(
        ["check-stokes", "manifests/square.json", "--chain", "square", "--form", "x_dy",
         "--tol", "1e-6", "--deterministic"]
    )
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["results"]["stokes"]["verdict"] == "pass"
    # degree mismatch is an input error
    res = run_cli(
        ["check-stokes", "manifests/circle.json", "--chain", "gamma", "--form", "x_dy"]
    )
    assert res.returncode == 2


def test_cli_check_volume_verdicts():
    res = run_cli(
        ["check-volume", "manifests/circle.json", "--simplex", "sqrt_graph", "--faces",
         "--deterministic"]
    )
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["results"]["volume"]["verdict"] == "yes"
    res = run_cli(["check-volume", "manifests/circle.json", "--simplex", "tsin_graph"])
    assert res.returncode == 1


def test_cli_tsin_graph_says_no_before_the_budget(capsys):
    # the sustained trigger runs at each new depth, so the "no" does not wait
    # for max_cells (19,999 splits)
    rc = cli.run(["check-volume", str(MANIFESTS / "circle.json"), "--simplex", "tsin_graph", "--deterministic"])
    volume = json.loads(capsys.readouterr().out)["results"]["volume"]
    dx_2 = volume["per_index"]["dx_2"]
    assert (rc, volume["verdict"], dx_2["diagnostics"]["stop_reason"]) == (1, "no", "diverging:sustained")
    assert dx_2["subdivisions"] <= 100


# check-volume integrates at --tol; check-stokes and periods integrate at
# --tol/100, so that quadrature noise stays below the verdict threshold.
# Floats as float.hex: the tolerance each command hands to quadrature fixes
# the values, error estimates and subdivision counts bit for bit.
TOLERANCE_GOLDEN = {
    "check-volume manifests/circle.json --simplex upper_sqrt": {
        "volume/per_index/dx_1/error_estimate": "0x1.8000000000000p-51",
        "volume/per_index/dx_1/subdivisions": 0,
        "volume/per_index/dx_1/value": "0x1.0000000000001p+1",
        "volume/per_index/dx_2/error_estimate": "0x1.b8725b6500000p-21",
        "volume/per_index/dx_2/subdivisions": 3,
        "volume/per_index/dx_2/value": "0x1.0000000d9e211p+1",
    },
    "check-volume manifests/circle.json --simplex sqrt_graph --faces": {
        "faces/face_0/per_index/dx_/error_estimate": 0,
        "faces/face_0/per_index/dx_/subdivisions": 0,
        "faces/face_0/per_index/dx_/value": 1,
        "faces/face_1/per_index/dx_/error_estimate": 0,
        "faces/face_1/per_index/dx_/subdivisions": 0,
        "faces/face_1/per_index/dx_/value": 1,
        "volume/per_index/dx_1/error_estimate": "0x1.8000000000000p-52",
        "volume/per_index/dx_1/subdivisions": 0,
        "volume/per_index/dx_1/value": "0x1.0000000000001p+0",
        "volume/per_index/dx_2/error_estimate": "0x1.7396cbef80000p-22",
        "volume/per_index/dx_2/subdivisions": 2,
        "volume/per_index/dx_2/value": "0x1.0000000cb6c5ep+0",
    },
    "check-stokes manifests/circle.json --chain gamma_semialg --form f_xy --tol 1e-4": {
        "stokes/per_term/0/report/lhs/error_estimate": "0x1.059e92db05400p-23",
        "stokes/per_term/0/report/lhs/subdivisions": 7,
        "stokes/per_term/0/report/lhs/value": "-0x1.d91a3fff68000p-34",
        "stokes/per_term/0/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/0/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/0/report/rhs_faces/0/value": 0,
        "stokes/per_term/0/report/rhs_faces/1/error_estimate": 0,
        "stokes/per_term/0/report/rhs_faces/1/subdivisions": 0,
        "stokes/per_term/0/report/rhs_faces/1/value": 0,
        "stokes/per_term/1/report/lhs/error_estimate": "0x1.059e92db05400p-23",
        "stokes/per_term/1/report/lhs/subdivisions": 7,
        "stokes/per_term/1/report/lhs/value": "-0x1.d91a3fff68000p-34",
        "stokes/per_term/1/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/1/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/1/report/rhs_faces/0/value": 0,
        "stokes/per_term/1/report/rhs_faces/1/error_estimate": 0,
        "stokes/per_term/1/report/rhs_faces/1/subdivisions": 0,
        "stokes/per_term/1/report/rhs_faces/1/value": 0,
    },
    "check-stokes manifests/circle.json --simplex upper_sqrt --form f_xy --tol 1e-4": {
        "stokes/lhs/error_estimate": "0x1.059e92db05400p-23",
        "stokes/lhs/subdivisions": 7,
        "stokes/lhs/value": "-0x1.d91a3fff68000p-34",
        "stokes/rhs_faces/0/error_estimate": 0,
        "stokes/rhs_faces/0/subdivisions": 0,
        "stokes/rhs_faces/0/value": 0,
        "stokes/rhs_faces/1/error_estimate": 0,
        "stokes/rhs_faces/1/subdivisions": 0,
        "stokes/rhs_faces/1/value": 0,
    },
    "periods manifests/circle.json --cycles gamma_semialg --forms dtheta,d_xy --tol 1e-4": {
        "periods/error_estimates/0/0": "0x1.1867418a00000p-20",
        "periods/error_estimates/0/1": "0x1.059e92db05400p-22",
        "periods/values/0/0": "0x1.921fb53aabc4ap+2",
        "periods/values/0/1": "-0x1.d91a3fff68000p-33",
    },
    "periods manifests/torus.json --cycles cycle_a,cycle_b --forms dtheta_1,dtheta_2,exact_1": {
        "periods/error_estimates/0/0": "0x1.8000000000000p-49",
        "periods/error_estimates/0/1": 0,
        "periods/error_estimates/0/2": "0x1.43bc7b1080000p-27",
        "periods/error_estimates/1/0": 0,
        "periods/error_estimates/1/1": "0x1.8000000000000p-49",
        "periods/error_estimates/1/2": "0x1.df223f3dd4550p-44",
        "periods/values/0/0": "0x1.921fb54442d1ap+2",
        "periods/values/0/1": 0,
        "periods/values/0/2": "0x1.941f608000000p-37",
        "periods/values/1/0": 0,
        "periods/values/1/1": "0x1.921fb54442d1ap+2",
        "periods/values/1/2": "-0x1.060268d949e23p-43",
    },
    # the prism path: the cone command's cone over sqrt_graph, in {tmp}
    "check-volume {tmp}/cone.json --simplex sqrt_graph_cone --tol 1e-10": {
        "volume/per_index/dx_1_2/error_estimate": "0x1.9119362000000p-34",
        "volume/per_index/dx_1_2/subdivisions": 10,
        "volume/per_index/dx_1_2/value": "0x1.5555555555058p-3",
    },
    # a 2-simplex in R^3: the hemisphere chart HEMISPHERE_CHART, in {tmp}
    "check-stokes {tmp}/hemi.json --simplex hemi --form z_dx --tol 1e-6": {
        "stokes/lhs/error_estimate": "0x1.55fe2fab6c66ep-27",
        "stokes/lhs/subdivisions": 170,
        "stokes/lhs/value": "0x1.d71e0e5461d8ep-3",
        "stokes/rhs_faces/0/error_estimate": "0x1.1f7ff26620000p-27",
        "stokes/rhs_faces/0/subdivisions": 10,
        "stokes/rhs_faces/0/value": "-0x1.1c5831addd15ap-1",
        "stokes/rhs_faces/1/error_estimate": 0,
        "stokes/rhs_faces/1/subdivisions": 0,
        "stokes/rhs_faces/1/value": 0,
        "stokes/rhs_faces/2/error_estimate": "0x1.4cc789d200000p-27",
        "stokes/rhs_faces/2/subdivisions": 8,
        "stokes/rhs_faces/2/value": "0x1.921fb544385dfp-1",
    },
    # a cone's own Jacobian on the density path: the barycentric subdivision
    # of the cone over the upper semicircle (CONE_CHAIN), in {tmp}
    "check-stokes {tmp}/cone_sd.json --chain c_sd --form x_dy --tol 1e-8": {
        "stokes/per_term/0/report/lhs/error_estimate": 0,
        "stokes/per_term/0/report/lhs/subdivisions": 0,
        "stokes/per_term/0/report/lhs/value": "0x1.0c152382d7365p-2",
        "stokes/per_term/0/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/0/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/0/report/rhs_faces/0/value": 0,
        "stokes/per_term/0/report/rhs_faces/1/error_estimate": "0x1.0000000000000p-106",
        "stokes/per_term/0/report/rhs_faces/1/subdivisions": 0,
        "stokes/per_term/0/report/rhs_faces/1/value": "-0x1.f6043e907c01bp-57",
        "stokes/per_term/0/report/rhs_faces/2/error_estimate": "0x1.470e9f0c10000p-34",
        "stokes/per_term/0/report/rhs_faces/2/subdivisions": 29,
        "stokes/per_term/0/report/rhs_faces/2/value": "0x1.0c152382d6fd2p-2",
        "stokes/per_term/1/report/lhs/error_estimate": 0,
        "stokes/per_term/1/report/lhs/subdivisions": 0,
        "stokes/per_term/1/report/lhs/value": "-0x1.0c152382d7366p-2",
        "stokes/per_term/1/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/1/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/1/report/rhs_faces/0/value": 0,
        "stokes/per_term/1/report/rhs_faces/1/error_estimate": "0x1.757e42b4d8000p-34",
        "stokes/per_term/1/report/rhs_faces/1/subdivisions": 30,
        "stokes/per_term/1/report/rhs_faces/1/value": "0x1.0c152382d6bf8p-1",
        "stokes/per_term/1/report/rhs_faces/2/error_estimate": "0x1.470e9f0c10000p-34",
        "stokes/per_term/1/report/rhs_faces/2/subdivisions": 29,
        "stokes/per_term/1/report/rhs_faces/2/value": "0x1.0c152382d6fd2p-2",
        "stokes/per_term/2/report/lhs/error_estimate": "0x1.0000000000000p-54",
        "stokes/per_term/2/report/lhs/subdivisions": 0,
        "stokes/per_term/2/report/lhs/value": "-0x1.0c152382d7366p-2",
        "stokes/per_term/2/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/2/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/2/report/rhs_faces/0/value": 0,
        "stokes/per_term/2/report/rhs_faces/1/error_estimate": "0x1.0000000000000p-106",
        "stokes/per_term/2/report/rhs_faces/1/subdivisions": 0,
        "stokes/per_term/2/report/rhs_faces/1/value": "-0x1.f6043e907c01bp-57",
        "stokes/per_term/2/report/rhs_faces/2/error_estimate": "0x1.470e9e4c3c000p-34",
        "stokes/per_term/2/report/rhs_faces/2/subdivisions": 29,
        "stokes/per_term/2/report/rhs_faces/2/value": "-0x1.0c152382d6fd4p-2",
        "stokes/per_term/3/report/lhs/error_estimate": 0,
        "stokes/per_term/3/report/lhs/subdivisions": 0,
        "stokes/per_term/3/report/lhs/value": "0x1.0c152382d7366p-2",
        "stokes/per_term/3/report/rhs_faces/0/error_estimate": 0,
        "stokes/per_term/3/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/3/report/rhs_faces/0/value": 0,
        "stokes/per_term/3/report/rhs_faces/1/error_estimate": "0x1.757e422738000p-34",
        "stokes/per_term/3/report/rhs_faces/1/subdivisions": 30,
        "stokes/per_term/3/report/rhs_faces/1/value": "-0x1.0c152382d6bf8p-1",
        "stokes/per_term/3/report/rhs_faces/2/error_estimate": "0x1.470e9e4c3c000p-34",
        "stokes/per_term/3/report/rhs_faces/2/subdivisions": 29,
        "stokes/per_term/3/report/rhs_faces/2/value": "-0x1.0c152382d6fd4p-2",
        "stokes/per_term/4/report/lhs/error_estimate": 0,
        "stokes/per_term/4/report/lhs/subdivisions": 0,
        "stokes/per_term/4/report/lhs/value": "0x1.0c152382d7366p-2",
        "stokes/per_term/4/report/rhs_faces/0/error_estimate": "0x1.6000000000000p-49",
        "stokes/per_term/4/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/4/report/rhs_faces/0/value": "0x1.921fb54442cf5p-1",
        "stokes/per_term/4/report/rhs_faces/1/error_estimate": "0x1.757e42b4d8000p-34",
        "stokes/per_term/4/report/rhs_faces/1/subdivisions": 30,
        "stokes/per_term/4/report/rhs_faces/1/value": "0x1.0c152382d6bf8p-1",
        "stokes/per_term/4/report/rhs_faces/2/error_estimate": "0x1.0000000000000p-108",
        "stokes/per_term/4/report/rhs_faces/2/subdivisions": 0,
        "stokes/per_term/4/report/rhs_faces/2/value": "0x1.39c2a71a4d808p-56",
        "stokes/per_term/5/report/lhs/error_estimate": 0,
        "stokes/per_term/5/report/lhs/subdivisions": 0,
        "stokes/per_term/5/report/lhs/value": "-0x1.0c152382d7366p-2",
        "stokes/per_term/5/report/rhs_faces/0/error_estimate": "0x1.9000000000000p-49",
        "stokes/per_term/5/report/rhs_faces/0/subdivisions": 0,
        "stokes/per_term/5/report/rhs_faces/0/value": "-0x1.921fb54442cf5p-1",
        "stokes/per_term/5/report/rhs_faces/1/error_estimate": "0x1.757e422738000p-34",
        "stokes/per_term/5/report/rhs_faces/1/subdivisions": 30,
        "stokes/per_term/5/report/rhs_faces/1/value": "-0x1.0c152382d6bf8p-1",
        "stokes/per_term/5/report/rhs_faces/2/error_estimate": "0x1.0000000000000p-108",
        "stokes/per_term/5/report/rhs_faces/2/subdivisions": 0,
        "stokes/per_term/5/report/rhs_faces/2/value": "0x1.39c2a71a4d808p-56",
    },
}

HEMISPHERE_CHART = {
    "schema": "periodlab/1",
    "ambient_dim": 3,
    "simplices": [{"name": "hemi", "dim": 2, "components": ["a1", "a2", "sqrt(1 - a1^2 - a2^2)"]}],
    "forms": [{"name": "z_dx", "degree": 1, "terms": [{"coeff": "a3", "indices": [1]}]}],
}


CONE_CHAIN = {
    "schema": "periodlab/1",
    "ambient_dim": 2,
    "derived_simplices": [{"name": "arc_cone", "map": {
        "kind": "cone", "of": {"kind": "expr", "dim": 1, "components": ["cos(pi*t)", "sin(pi*t)"]}}}],
    "chains": [{"name": "c", "terms": [{"coeff": 1, "simplex": "arc_cone"}]}],
}
X_DY = {"name": "x_dy", "degree": 1, "terms": [{"coeff": "a1", "indices": [2]}]}


def _in_tmp(command, tmp_path):
    """The command with {tmp} set to ``tmp_path``, after writing the manifests
    it reads there: the cone over sqrt_graph, the hemisphere chart, and the
    subdivided cone chain with the form x dy."""
    if "{tmp}" in command:
        (tmp_path / "hemi.json").write_text(json.dumps(HEMISPHERE_CHART))
        (tmp_path / "cone_chain.json").write_text(json.dumps(CONE_CHAIN))
        sd = tmp_path / "cone_sd.json"
        for argv in (
            ["cone", "manifests/circle.json", "--simplex", "sqrt_graph", "--out", str(tmp_path / "cone.json")],
            ["subdivide", str(tmp_path / "cone_chain.json"), "--chain", "c", "--out", str(sd)],
        ):
            assert cli.run(argv) == 0
        sd.write_text(json.dumps({**json.loads(sd.read_text()), "forms": [X_DY]}))
    return command.replace("{tmp}", str(tmp_path))


def _pinned_leaves(node, path=(), keep=False):
    """(path, leaf) for every value, error estimate and subdivision count."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _pinned_leaves(
                v, path + (k,), keep or k in {"value", "values", "error_estimate",
                                              "error_estimates", "subdivisions"}
            )
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _pinned_leaves(v, path + (i,), keep)
    elif keep:
        yield "/".join(map(str, path)), node.hex() if isinstance(node, float) else node


@pytest.mark.parametrize("command", list(TOLERANCE_GOLDEN))
def test_cli_quadrature_tolerance_per_command(command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert cli.run(_in_tmp(command, tmp_path).split() + ["--deterministic", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert dict(_pinned_leaves(results)) == TOLERANCE_GOLDEN[command]


# The exact answer of each value pinned above, by the value's path: every
# pinned estimate bounds its true error, up to the benchmark's 1e-13 floor.
# The torus's exact form on cycle_b stops at its root cell with a true
# error of 1.16e-13 against an estimate of 1.06e-13.
TOLERANCE_ANSWERS = {
    "check-volume manifests/circle.json --simplex upper_sqrt": {
        "volume/per_index/dx_1/value": 2.0, "volume/per_index/dx_2/value": 2.0,
    },
    "check-volume manifests/circle.json --simplex sqrt_graph --faces": {
        "volume/per_index/dx_1/value": 1.0, "volume/per_index/dx_2/value": 1.0,
        "faces/face_0/per_index/dx_/value": 1.0, "faces/face_1/per_index/dx_/value": 1.0,
    },
    # d(xy) over a half circle from (1, 0) to (-1, 0): xy vanishes at both ends
    "check-stokes manifests/circle.json --chain gamma_semialg --form f_xy --tol 1e-4": {
        f"stokes/per_term/{k}/report/{leaf}": 0.0
        for k in (0, 1) for leaf in ("lhs/value", "rhs_faces/0/value", "rhs_faces/1/value")
    },
    "check-stokes manifests/circle.json --simplex upper_sqrt --form f_xy --tol 1e-4": {
        "stokes/lhs/value": 0.0, "stokes/rhs_faces/0/value": 0.0, "stokes/rhs_faces/1/value": 0.0,
    },
    "periods manifests/circle.json --cycles gamma_semialg --forms dtheta,d_xy --tol 1e-4": {
        "periods/values/0/0": 2 * math.pi, "periods/values/0/1": 0.0,
    },
    "periods manifests/torus.json --cycles cycle_a,cycle_b --forms dtheta_1,dtheta_2,exact_1": {
        f"periods/values/{i}/{j}": 2 * math.pi if i == j else 0.0 for i in (0, 1) for j in (0, 1, 2)
    },
    # the area between y = x and y = sqrt(x) on [0, 1]
    "check-volume {tmp}/cone.json --simplex sqrt_graph_cone --tol 1e-10": {
        "volume/per_index/dx_1_2/value": 1.0 / 6.0,
    },
    # z dx over the edges of the chart: pi/4 along y = 0, 0 along x = 0 and
    # -sqrt(2) pi/8 along x + y = 1, where z = sqrt(2 s (1 - s))
    "check-stokes {tmp}/hemi.json --simplex hemi --form z_dx --tol 1e-6": {
        "stokes/lhs/value": math.pi / 4 - math.sqrt(2) * math.pi / 8,
        "stokes/rhs_faces/0/value": -math.sqrt(2) * math.pi / 8,
        "stokes/rhs_faces/1/value": 0.0,
        "stokes/rhs_faces/2/value": math.pi / 4,
    },
    # x dy over the pieces of the subdivided cone, in twelfths of pi.  The
    # cone map, r = s1 + s2 and theta = pi s2 / r in polar coordinates,
    # scales area by pi, and each piece has area 1/12.  Along a segment on
    # which s2 = alpha r + beta, x dy integrates to -pi beta (r1 - r0)/2 plus
    # r^2 sin(2 theta)/4 at its ends, which vanishes at every vertex of a
    # piece (theta is 0, pi/2 or pi there); along the arc r = 1 it is d theta/2.
    "check-stokes {tmp}/cone_sd.json --chain c_sd --form x_dy --tol 1e-8": {
        f"stokes/per_term/{k}/report/{leaf}": twelfths * math.pi / 12
        for k, row in enumerate([(1, 0, 0, 1), (-1, 0, 2, 1), (-1, 0, 0, -1), (1, 0, -2, -1), (1, 3, 2, 0), (-1, -3, -2, 0)])
        for leaf, twelfths in zip(("lhs/value", "rhs_faces/0/value", "rhs_faces/1/value", "rhs_faces/2/value"), row)
    },
}


@pytest.mark.parametrize("command", list(TOLERANCE_GOLDEN))
def test_cli_pinned_values_bound_their_true_error(command):
    golden = TOLERANCE_GOLDEN[command]
    assert {p for p in golden if "value" in p} == set(TOLERANCE_ANSWERS[command])
    for path, exact in TOLERANCE_ANSWERS[command].items():
        value, err = (
            float.fromhex(x) if isinstance(x, str) else float(x)
            for x in (golden[path], golden[path.replace("/value", "/error_estimate")])
        )
        assert abs(value - exact) <= err + 1e-13, path


def test_cli_tolerance_has_one_flag():
    # --tol is the only way to set a quadrature tolerance
    with pytest.raises(SystemExit) as exc:
        cli.run(["periods", str(MANIFESTS / "circle.json"), "--cycles", "gamma",
                 "--forms", "dtheta", "--abs-tol", "1e-3"])
    assert exc.value.code == 2


SQRT_GRAPH_CHECK = ["check-volume", str(MANIFESTS / "circle.json"), "--simplex", "sqrt_graph"]


@pytest.mark.parametrize(
    "argv",
    [SQRT_GRAPH_CHECK + flag for flag in (
        ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
        ["--max-depth", "-1"], ["--jobs", "0"], ["--jobs", "-3"],
    )] + [
        ["check-stokes", str(MANIFESTS / "circle.json"), "--simplex", "sqrt_graph",
         "--form", "f_xy", "--tol", "nan"],
        ["periods", str(MANIFESTS / "circle.json"), "--cycles", "gamma", "--forms", "dtheta",
         "--tol", "0"],
    ],
    ids=lambda argv: " ".join([argv[0]] + argv[-2:]),
)
def test_cli_invalid_quadrature_input_is_input_error(argv, capsys):
    # a tolerance that is not finite and positive, a negative depth or fewer
    # than one job is rejected before any refinement
    started = time.monotonic()
    rc = cli.run(argv)
    elapsed = time.monotonic() - started
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert elapsed < 1.0
    if "--tol" in argv:  # the flag and the value the user typed, not the library's tol/100
        assert err == f"error: --tol must be finite and positive, got {float(argv[argv.index('--tol') + 1])}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-stokes", str(MANIFESTS / "circle.json"), "--form", "f_xy"],
         "check-stokes needs exactly one of --chain/--simplex"),
        (["check-stokes", str(MANIFESTS / "circle.json"), "--form", "f_xy", "--chain", "gamma",
          "--simplex", "sqrt_graph"], "check-stokes needs exactly one of --chain/--simplex"),
        (["subdivide", str(MANIFESTS / "torus.json")], "subdivide needs exactly one of --chain/--complex"),
        (["subdivide", str(MANIFESTS / "torus.json"), "--chain", "cycle_a", "--complex", "T7"],
         "subdivide needs exactly one of --chain/--complex"),
        (["check-stokes", str(MANIFESTS / "circle.json"), "--simplex", "sqrt_graph", "--form", "f_xy",
          "--tol", "-1"], "--tol must be finite and positive, got -1.0"),
        (["periods", str(MANIFESTS / "circle.json"), "--cycles", "gamma", "--forms", "dtheta", "--tol", "-1"],
         "--tol must be finite and positive, got -1.0"),
    ],
    ids=["check-stokes neither", "check-stokes both", "subdivide neither", "subdivide both",
         "check-stokes tol", "periods tol"],
)
def test_cli_flag_error_names_the_flag_and_no_manifest_pointer(argv, message, capsys):
    # a selector error once read "error: /: ...", a JSON pointer into no
    # manifest, and a --tol of -1 "got -0.01", the tolerance the library saw
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


QUADRATURE_FLAGS = {"--tol", "--max-depth", "--jobs"}
COMMAND_FLAGS = {
    "check-volume": QUADRATURE_FLAGS | {"--simplex", "--faces"},
    "check-stokes": QUADRATURE_FLAGS | {"--chain", "--simplex", "--form"},
    "cone": {"--simplex"},
    "subdivide": {"--chain", "--complex"},
    "homology": {"--complex"},
    "periods": QUADRATURE_FLAGS | {"--cycles", "--forms", "--seed", "--output"},
    "glue": {"--table", "--t1", "--t2", "--name"},
}


def test_cli_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_FLAGS)
    for command, parser in sub.choices.items():
        options = {opt for action in parser._actions for opt in action.option_strings}
        assert options == COMMAND_FLAGS[command] | {"-h", "--help", "--deterministic", "--out"}, command


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", str(MANIFESTS / "torus.json"), "--complex", "T7", "--tol", "1e-3"],
        ["cone", str(MANIFESTS / "circle.json"), "--simplex", "sqrt_graph", "--max-depth", "3"],
        SQRT_GRAPH_CHECK + ["--output", "csv"],
        ["glue", str(MANIFESTS / "circle_upper.json"), str(MANIFESTS / "circle_lower.json"),
         "--table", str(MANIFESTS / "circle_btable.json"), "--seed", "1"],
    ],
    ids=lambda argv: " ".join([argv[0]] + argv[-2:-1]),
)
def test_cli_rejects_a_flag_the_command_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2


def test_cli_report_config_lists_the_commands_own_flags(capsys):
    assert cli.run(["homology", str(MANIFESTS / "torus.json"), "--complex", "T7",
                    "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {"deterministic": True}
    assert cli.run(SQRT_GRAPH_CHECK + ["--deterministic"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"tol": 1e-6, "max_depth": None, "jobs": 1, "deterministic": True}


def _circle_glue(table):
    return ["glue", str(MANIFESTS / "circle_upper.json"), str(MANIFESTS / "circle_lower.json"),
            "--table", table]


def _manifest_with(**sections):
    return {"schema": "periodlab/1", "ambient_dim": 2,
            "complexes": [{"name": "K", "simplices": [[0, 1]]}], **sections}


def _glued_triangulation(v_slots, roles):
    segment = {"kind": "affine", "vertices": [[0.0, 0.0], [1.0, 0.0]]}
    glued = {"kind": "glued", "sigma": segment, "tau": segment, "v_slots": v_slots, "roles": roles}
    return _manifest_with(triangulations=[
        {"name": "T", "complex": "K", "evaluators": [{"simplex": [0, 1], "map": glued}]}
    ])


def _circle_upper_with_vertices(vertices, evaluator=2):
    """circle_upper.json with the affine map of one evaluator, by default
    that of its vertex 0, replaced."""
    upper = json.loads((MANIFESTS / "circle_upper.json").read_text())
    upper["triangulations"][0]["evaluators"][evaluator]["map"] = {"kind": "affine", "vertices": vertices}
    return upper


def _circle_upper_with(evaluators=(), marks=None):
    """circle_upper.json with ``evaluators`` appended and, if given, its
    marks replaced."""
    upper = json.loads((MANIFESTS / "circle_upper.json").read_text())
    upper["triangulations"][0]["evaluators"] += evaluators
    if marks is not None:
        upper["triangulations"][0]["marks"] = marks
    return upper


_GLUE_UPPER = ["glue", "{}", str(MANIFESTS / "circle_lower.json"),
               "--table", str(MANIFESTS / "circle_btable.json")]
_PRISM = {"kind": "prism", "profile": "1 - t", "of": {"kind": "expr", "dim": 1, "components": ["t", "t^2"]}}


# each case once escaped cli.run as a TypeError, KeyError, AttributeError,
# IndexError or IsADirectoryError, or exited 0 (a form of the wrong degree on
# an empty chain); argv reads {} as the path of the file written from the JSON
MALFORMED_INPUTS = {
    "chain-degree-string": (
        ["periods", "{}", "--cycles", "c", "--forms", "w"],
        _manifest_with(
            chains=[{"name": "c", "degree": "1", "terms": []}],
            forms=[{"name": "w", "degree": 1, "terms": [{"indices": [1], "coeff": "1"}]}],
        ),
        "/chains/0/degree",
    ),
    "glue-table-list": (_circle_glue("{}"), [], "/"),
    "glue-row-without-sigma": (
        _circle_glue("{}"), {"containment": [{"tau": [0]}, {"tau": [2], "sigma": [0]}]},
        "/containment/0",
    ),
    "complex-vertex-string": (
        ["homology", "{}", "--complex", "K"],
        {"complexes": [{"name": "K", "simplices": [[0, "a"]]}]},
        "/complexes/0/simplices/0",
    ),
    # [0, 0, 1] was read as the edge [0, 1], and homology exited 0
    "complex-repeated-vertex": (
        ["homology", "{}", "--complex", "K"],
        {"complexes": [{"name": "K", "simplices": [[0, 0, 1], [1, 2]]}]},
        "/complexes/0/simplices/0: a simplex is a non-empty list of distinct integer vertices",
    ),
    "complex-simplex-int": (
        ["homology", "{}", "--complex", "K"],
        {"complexes": [{"name": "K", "simplices": [3]}]},
        "/complexes/0/simplices/0",
    ),
    "evaluator-map-int": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(triangulations=[
            {"name": "T", "complex": "K", "evaluators": [{"simplex": [0, 1], "map": 5}]}
        ]),
        "/triangulations/0/evaluators/0/map",
    ),
    "evaluator-component-int": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(triangulations=[{"name": "T", "complex": "K", "evaluators": [
            {"simplex": [0, 1], "map": {"kind": "expr", "dim": 1, "components": [5, 6]}}
        ]}]),
        "/triangulations/0/evaluators/0/map/components/0: item has wrong type",
    ),
    "glued-v-role-past-v-slots": (
        ["homology", "{}", "--complex", "K"],
        _glued_triangulation([0], [["v", 3], ["w", 0]]),
        "/triangulations/0/evaluators/0/map: a 'v' role points past",
    ),
    "glued-v-slot-and-role-kind": (
        ["homology", "{}", "--complex", "K"],
        _glued_triangulation([5], [["x", 0], ["w", 0]]),
        "/triangulations/0/evaluators/0/map: a glued role is",
    ),
    "triangulation-without-evaluator-coverage": (
        ["glue", "{}", str(MANIFESTS / "circle_lower.json"),
         "--table", str(MANIFESTS / "circle_btable.json")],
        {"schema": "periodlab/1", "ambient_dim": 2,
         "complexes": [{"name": "K", "simplices": [[0, 1], [1, 2]]}],
         "triangulations": [{"name": "T", "complex": "K", "evaluators": [
             {"simplex": [0], "map": {"kind": "affine", "vertices": [[1.0, 0.0]]}}
         ], "marks": {"B": [[0], [2]]}}]},
        "/triangulations/0/evaluators: maximal simplex (0, 1) has no evaluator",
    ),
    "stokes-empty-chain-form-degree": (
        ["check-stokes", "{}", "--chain", "e", "--form", "w2"],
        _manifest_with(
            chains=[{"name": "e", "degree": 1, "terms": []}],
            forms=[{"name": "w2", "degree": 2, "terms": [{"indices": [1, 2], "coeff": "1"}]}],
        ),
        "check_chain needs a degree-0 form, got degree 2",
    ),
    "periods-empty-chain-form-degree": (
        ["periods", "{}", "--cycles", "e", "--forms", "w2"],
        _manifest_with(
            chains=[{"name": "e", "degree": 1, "terms": []}],
            forms=[{"name": "w2", "degree": 2, "terms": [{"indices": [1, 2], "coeff": "1"}]}],
        ),
        "chain_integral needs a degree-1 form, got degree 2",
    ),
    "form-index-string": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(forms=[{"name": "w", "degree": 1, "terms": [{"indices": ["1"], "coeff": "1"}]}]),
        "/forms/0/terms/0/indices/0",
    ),
    "out-is-a-directory": (
        ["homology", "{}", "--complex", "K", "--out", "/"], _manifest_with(), "[Errno 21]",
    ),
    "affine-vertex-row-object": (
        _GLUE_UPPER, _circle_upper_with_vertices([{}]),
        "/triangulations/0/evaluators/2/map/vertices/0: item has wrong type",
    ),
    "affine-vertex-null": (  # read as a NaN vertex
        _GLUE_UPPER, _circle_upper_with_vertices([[None, 0.0]]),
        "/triangulations/0/evaluators/2/map/vertices/0/0: a vertex coordinate must be a finite number",
    ),
    # JSON's NaN literal: validate's distance checks are all false on NaN
    "affine-vertex-nan": (
        _GLUE_UPPER, _circle_upper_with_vertices([[0.0, math.nan]]),
        "/triangulations/0/evaluators/2/map/vertices/0/1: a vertex coordinate must be a finite number",
    ),
    # an evaluator of the wrong dimension: an edge map on a vertex was
    # glued into a wrong manifest with exit 0, a 2-D map on an edge failed
    # later as a face disagreement, a 0-D map on an edge as bad v_slots
    "evaluator-edge-on-a-vertex": (
        _GLUE_UPPER, _circle_upper_with_vertices([[1, 0], [0, 1]]),
        "/triangulations/0/evaluators/2/map: a dim-1 evaluator on the simplex (0,)",
    ),
    "evaluator-triangle-on-an-edge": (
        _GLUE_UPPER, _circle_upper_with_vertices([[1, 0], [0, 1], [0, 0]], evaluator=0),
        "/triangulations/0/evaluators/0/map: a dim-2 evaluator on the simplex (0, 1)",
    ),
    "evaluator-point-on-an-edge": (
        _GLUE_UPPER, _circle_upper_with_vertices([[1, 0]], evaluator=0),
        "/triangulations/0/evaluators/0/map: a dim-0 evaluator on the simplex (0, 1)",
    ),
    "evaluator-named-of-the-wrong-dim": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(simplices=[{"name": "s", "dim": 2, "components": ["a1", "a2"]}],
                       triangulations=[{"name": "T", "complex": "K", "evaluators": [
                           {"simplex": [0, 1], "named": "s"}]}]),
        "/triangulations/0/evaluators/0/named: a dim-2 evaluator on the simplex (0, 1)",
    ),
    # a named map outside R^ambient_dim loaded, and check-volume integrated
    # it in R^3 with exit 0; homology loaded the triangulation with exit 0
    "derived-map-past-ambient": (
        ["check-volume", "{}", "--simplex", "p"],
        _manifest_with(derived_simplices=[
            {"name": "p", "map": {"kind": "expr", "dim": 1, "components": ["t", "t", "t"]}}]),
        "/derived_simplices/0/map: a map into R^3 in a manifest of ambient_dim 2",
    ),
    "triangulation-map-past-ambient": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(triangulations=[{"name": "T", "complex": "K", "evaluators": [
            {"simplex": [0, 1], "map": {"kind": "expr", "dim": 1, "components": ["t", "t", "t"]}}
        ]}]),
        "/triangulations/0/evaluators/0/map: a map into R^3 in a manifest of ambient_dim 2",
    ),
    "simplex-past-ambient": (
        ["check-volume", "{}", "--simplex", "s"],
        _manifest_with(simplices=[{"name": "s", "dim": 1, "components": ["t", "t", "t"]}]),
        "/simplices/0: a map into R^3 in a manifest of ambient_dim 2",
    ),
    # without ambient_dim, a chain of maps into R^2 and R^3 loaded, and
    # subdivide wrote a manifest that was itself an input error
    "chain-of-two-ambients": (
        ["subdivide", "{}", "--chain", "c"],
        {"schema": "periodlab/1", "simplices": [{"name": "a", "dim": 1, "components": ["t", "t"]},
                                                {"name": "b", "dim": 1, "components": ["t", "t", "t"]}],
         "chains": [{"name": "c", "terms": [{"simplex": "a"}, {"simplex": "b", "coeff": -1}]}]},
        "/chains/0/terms/1/simplex: a map into R^3 in a chain of maps into R^2",
    ),
    # a syntax error in a map of any name is reported at its components
    "derived-map-syntax": (
        ["check-volume", "{}", "--simplex", "p"],
        _manifest_with(derived_simplices=[{"name": "p", "map": {"kind": "expr", "dim": 1, "components": ["t+²", "t"]}}]),
        "/derived_simplices/0/map/components: unexpected character '²' (at offset 2)",
    ),
    # no nonzero d-form lives on R^n for d > n; at dim 10^6 the load alone
    # ran for minutes, differentiating each component by each coordinate
    "simplex-dim-past-ambient": (
        ["check-volume", "{}", "--simplex", "s"],
        {"schema": "periodlab/1", "ambient_dim": 2,
         "simplices": [{"name": "s", "dim": 1000000, "components": ["a1", "a2"]}]},
        "/simplices/0/dim: dim must be between 0 and the ambient dimension 2",
    ),
    "evaluator-dim-past-ambient": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(triangulations=[{"name": "T", "complex": "K", "evaluators": [
            {"simplex": [0, 1], "map": {"kind": "expr", "dim": 3, "components": ["t", "t"]}}
        ]}]),
        "/triangulations/0/evaluators/0/map/dim",
    ),
    # a JSON boolean is an int to Python: "dim": true escaped as a TypeError
    # from the cubature rule, "coeff" and "degree" were read as 1
    "simplex-dim-true": (
        ["check-volume", "{}", "--simplex", "s"],
        {"schema": "periodlab/1", "ambient_dim": 2,
         "simplices": [{"name": "s", "dim": True, "components": ["a1", "a2"]}]},
        "/simplices/0/dim: key 'dim' has wrong type",
    ),
    "chain-coeff-true": (
        ["periods", "{}", "--cycles", "c", "--forms", "w"],
        _manifest_with(
            simplices=[{"name": "s", "dim": 1, "components": ["t", "t"]}],
            chains=[{"name": "c", "terms": [{"simplex": "s", "coeff": True}]}],
            forms=[{"name": "w", "degree": 1, "terms": [{"indices": [1], "coeff": "1"}]}],
        ),
        "/chains/0/terms/0/coeff: key 'coeff' has wrong type",
    ),
    "form-degree-false": (
        ["periods", "{}", "--cycles", "c", "--forms", "w"],
        _manifest_with(
            chains=[{"name": "c", "degree": 0, "terms": []}],
            forms=[{"name": "w", "degree": False, "terms": []}],
        ),
        "/forms/0/degree: key 'degree' has wrong type",
    ),
    "form-index-true": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(forms=[{"name": "w", "degree": 1, "terms": [{"indices": [True], "coeff": "1"}]}]),
        "/forms/0/terms/0/indices/0: item has wrong type",
    ),
    "glue-table-true": (
        _circle_glue("{}"), {"containment": [{"tau": [0], "sigma": [2]}, {"tau": [True], "sigma": [0]}]},
        "/containment/1/tau/0: item has wrong type",
    ),
    # found by fuzzing with the mutations of test_cli_fuzz.py: a KeyError
    # from the evaluator lookup of a table key that is no marked simplex of
    # the second piece
    "glue-table-key-not-marked": (
        _circle_glue("{}"),
        {"containment": [{"tau": [0], "sigma": [2]}, {"tau": [2], "sigma": [0]}, {"tau": [2, 2], "sigma": [0]}]},
        "containment keys are not marked in the second piece: [(2, 2)]",
    ),
    # a repeated row kept only its last sigma, and glue failed later with a
    # misleading "Newton inverse failed"
    "glue-table-repeated-tau": (
        _circle_glue("{}"),
        {"containment": [{"tau": [0], "sigma": [2]}, {"tau": [2], "sigma": [0]}, {"tau": [0], "sigma": [0]}]},
        "/containment/2/tau: tau (0,) has a second row",
    ),
    # the last evaluator of a simplex won: glued edge [2, 3] interpolated
    # the chord instead of the quarter arc, with exit 0
    "evaluator-repeated-simplex": (
        _GLUE_UPPER,
        _circle_upper_with([{"simplex": [1, 0], "map": {"kind": "affine", "vertices": [[1, 0], [0, 1]]}}]),
        "/triangulations/0/evaluators/5/simplex: simplex (0, 1) has a second evaluator",
    ),
    "glue-b-condition-first-piece": (
        _GLUE_UPPER, _circle_upper_with(marks={"B": [[0], [1], [2]]}),
        "first piece: (0, 1) has every vertex in mark 'B' but is not marked (B-condition); mark it, "
        "or triangulate the piece so that the overlap is a full subcomplex",
    ),
    # glue raised the same KeyError on a marked simplex outside the complex
    # of the second piece when the table named it too
    "mark-outside-the-complex": (
        ["homology", "{}", "--complex", "K"],
        _manifest_with(triangulations=[{"name": "T", "complex": "K", "marks": {"B": [[0], [7]]}, "evaluators": [
            {"simplex": [0, 1], "map": {"kind": "affine", "vertices": [[0.0, 0.0], [1.0, 0.0]]}}
        ]}]),
        "/triangulations/0/marks/B/1: not a simplex of the complex",
    ),
    # no command emits a prism; check-volume read its [0,1] x Delta_1 domain
    # as Delta_2 and said "yes"
    "derived-prism": (
        ["check-volume", "{}", "--simplex", "p"],
        _manifest_with(derived_simplices=[{"name": "p", "map": _PRISM}]),
        "/derived_simplices/0/map: unknown evaluator kind 'prism'",
    ),
    "composed-over-prism": (
        ["check-volume", "{}", "--simplex", "p"],
        _manifest_with(derived_simplices=[{"name": "p", "map": {
            "kind": "composed", "of": {"kind": "expr", "dim": 2, "components": ["a1", "a2"]}, "inner": _PRISM,
        }}]),
        "/derived_simplices/0/map/inner: unknown evaluator kind 'prism'",
    ),
    # below: input errors that already exited 2, pinned so that each message keeps its pointer or flag
    "composed-inner-off-the-outer-domain": (
        ["check-volume", "{}", "--simplex", "p"],
        _manifest_with(derived_simplices=[{"name": "p", "map": {
            "kind": "composed", "of": {"kind": "expr", "dim": 2, "components": ["a1", "a2"]},
            "inner": {"kind": "affine", "vertices": [[0, 0, 0], [1, 0, 0]]},
        }}]),
        "/derived_simplices/0/map: inner map must land in the outer domain",
    ),
    # the cases below read no file written from their JSON
    "manifest-not-json": (
        ["homology", str(ROOT / "pyproject.toml"), "--complex", "K"], {}, "/: invalid JSON: ",
    ),
    "glue-t1-unresolved": (
        _circle_glue(str(MANIFESTS / "circle_btable.json")) + ["--t1", "nope"], {},
        "/triangulations: unresolved reference 'nope'",
    ),
    "glue-piece-without-a-triangulation": (
        ["glue", str(MANIFESTS / "circle.json"), str(MANIFESTS / "circle_lower.json"),
         "--table", str(MANIFESTS / "circle_btable.json")], {},
        "/triangulations: manifest must contain exactly one triangulation",
    ),
    # the flag and the value the user typed, not the library's QuadConfig or numpy's seed check
    "max-depth-negative": (SQRT_GRAPH_CHECK + ["--max-depth", "-1"], {}, "--max-depth must be at least 0, got -1\n"),
    "seed-negative": (
        ["periods", str(MANIFESTS / "circle.json"), "--cycles", "gamma", "--forms", "dtheta", "--seed", "-1"], {},
        "--seed must be a non-negative integer, got -1\n",
    ),
    "stokes-form-of-the-wrong-degree": (
        ["check-stokes", str(MANIFESTS / "circle.json"), "--simplex", "sqrt_graph", "--form", "dtheta"], {},
        "stokes_residual needs a degree-0 form, got degree 1\n",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_cli_malformed_input_is_input_error(case, tmp_path, capsys):
    argv, content, where = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    rc = cli.run([str(path) if a == "{}" else a for a in argv] + ["--deterministic"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {where}") and "Traceback" not in err


def test_cli_triangulation_in_two_ambient_spaces_is_an_input_error(tmp_path, capsys):
    # without ambient_dim no map is checked against the manifest's space, so
    # the triangulation's own check is the one that fires
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"schema": "periodlab/1", "complexes": [{"name": "K", "simplices": [[0, 1], [1, 2]]}],
                                "triangulations": [{"name": "T", "complex": "K", "evaluators": [
                                    {"simplex": [0, 1], "map": {"kind": "affine", "vertices": [[0, 0], [1, 0]]}},
                                    {"simplex": [1, 2], "map": {"kind": "affine", "vertices": [[1, 0, 0], [1, 1, 0]]}},
                                ]}]}))
    assert cli.run(["homology", str(path), "--complex", "K"]) == 2
    assert capsys.readouterr().err == "error: /triangulations/0: evaluators must share one ambient space\n"


def test_cli_a_digit_that_is_not_decimal_is_an_input_error_at_its_pointer(tmp_path, capsys):
    # "²" passes str.isdigit, and once reached the user as Fraction's bare
    # "Invalid literal for Fraction: '²'", with no pointer
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_manifest_with(simplices=[{"name": "x", "dim": 1, "components": ["t+²", "t"]}])))
    assert cli.run(["check-volume", str(path), "--simplex", "x", "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /simplices/0/components: unexpected character '²' (at offset 2)")


def _circle_with_subdivided_arcs() -> dict:
    """circle.json's arcs and 1-forms, laid out as the benchmark's
    periods-circle writes them: each half of gamma_sd composes an affine map
    with its arc's own components, and gamma_rep reparametrises the arcs."""

    def arc(start, t="t"):
        return [f"cos({start} + pi*{t})", f"sin({start} + pi*{t})"]

    arcs = (("upper", "0"), ("lower", "pi"))
    halves = (("a", [[0.5], [1.0]], 1), ("b", [[0.5], [0.0]], -1))
    circle = json.loads((MANIFESTS / "circle.json").read_text())
    return {
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "simplices": [{"name": f"{half}_arc", "dim": 1, "components": arc(start)} for half, start in arcs]
        + [{"name": f"{half}_rep", "dim": 1, "components": arc(start, "(t - 0.25*t*(1 - t))")}
           for half, start in arcs],
        "derived_simplices": [
            {"name": f"{half}_sd_{tag}", "map": {"kind": "composed", "inner": {"kind": "affine", "vertices": verts},
                                                 "of": {"kind": "expr", "dim": 1, "components": arc(start)}}}
            for half, start in arcs for tag, verts, _ in halves
        ],
        "chains": [
            {"name": "gamma", "terms": [{"simplex": "upper_arc"}, {"simplex": "lower_arc"}]},
            {"name": "gamma_sd", "terms": [{"simplex": f"{half}_sd_{tag}", "coeff": coeff}
                                           for half, _ in arcs for tag, _, coeff in halves]},
            {"name": "gamma_rep", "terms": [{"simplex": "upper_rep"}, {"simplex": "lower_rep"}]},
        ],
        "forms": [f for f in circle["forms"] if f["name"] in ("dtheta", "d_xy")],
    }


def test_a_manifest_parses_and_compiles_each_expression_map_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(_circle_with_subdivided_arcs()))
    parse, parsed = ex.parse, []
    monkeypatch.setattr(ex, "parse", lambda text, arity: parsed.append(text) or parse(text, arity))
    man = mf.load_manifest(str(path))
    # four maps of two components, and four form coefficients (20 when each
    # half of gamma_sd parsed its own arc)
    assert len(parsed) == 4 * 2 + 4
    assert man.simplices["upper_sd_a"].outer is man.simplices["upper_sd_b"].outer is man.simplices["upper_arc"]
    assert man.simplices["lower_sd_a"].outer is man.simplices["lower_arc"]
    compile_many, programs = ex.compile_many, []
    monkeypatch.setattr(ex, "compile_many", lambda es: programs.append(list(es)) or compile_many(es))
    argv = ["periods", str(path), "--cycles", "gamma,gamma_sd,gamma_rep", "--forms", "dtheta,d_xy", "--jobs", "2"]
    assert cli.run(argv + ["--deterministic"]) == 0
    values = json.loads(capsys.readouterr().out)["results"]["periods"]["values"]
    assert np.allclose(values, [[2 * math.pi, 0.0]] * 3, atol=1e-6)
    # two programs for each of the four maps: its two components, which the
    # boundary check samples at the faces, and its two components and two
    # Jacobian entries, which the integrals ask for; one for each of dtheta
    # and d_xy, of their four coefficients; and one for the one coefficient
    # of d(dtheta), which the closedness check samples (19 programs when each
    # half of gamma_sd compiled its own arc)
    assert sorted(map(len, programs)) == [1] + [2] * 6 + [4] * 4


def test_cli_a_huge_dim_is_rejected_before_the_map_is_built(tmp_path, capsys):
    start = time.perf_counter()
    test_cli_malformed_input_is_input_error("simplex-dim-past-ambient", tmp_path, capsys)
    assert time.perf_counter() - start < 2.0


def test_cli_missing_manifest_is_input_error():
    res = run_cli(["homology", "no_such_file.json", "--complex", "T7"])
    assert res.returncode == 2
    assert "error" in res.stderr


def test_cli_bad_manifest_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "periodlab/1", "simplices": [{"name": "x"}]}')
    res = run_cli(["check-volume", str(bad), "--simplex", "x"])
    assert res.returncode == 2
    assert "/simplices/0" in res.stderr


def test_cli_domain_error_is_input_error(tmp_path):
    # a face evaluates t*sin(1/t) at t = 0
    res = run_cli(
        ["check-volume", "manifests/circle.json", "--simplex", "tsin_graph", "--faces",
         "--max-depth", "8", "--deterministic"]
    )
    assert res.returncode == 2
    assert "error: simplex 'tsin_graph': face 1: division by zero in 1/a1" in res.stderr
    assert "Traceback" not in res.stderr
    # the Jacobian of sqrt(a1) on the face a1 = 0 of a 2-simplex
    sheet = tmp_path / "sheet.json"
    sheet.write_text(json.dumps({
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "simplices": [{"name": "sheet", "dim": 2, "components": ["sqrt(a1)", "a2"]}],
        "forms": [{"name": "dy", "degree": 1, "terms": [{"indices": [2], "coeff": "1"}]}],
    }))
    res = run_cli(["check-stokes", str(sheet), "--simplex", "sheet", "--form", "dy"])
    assert res.returncode == 2
    assert "error: simplex 'sheet': face 1: division by zero in 1/(2*sqrt(a1))" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_non_finite_integral_is_inconclusive(tmp_path):
    # the pullback of dx overflows to infinity: no refinement can repair the
    # sum, so the check stops at once and reports it as null
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "simplices": [{"name": "steep", "dim": 1, "components": ["exp(1000*t)", "t"]}],
    }))
    res = run_cli(["check-volume", str(steep), "--simplex", "steep", "--deterministic"], timeout=60)
    assert res.returncode == 1, res.stderr
    assert res.stderr == ""  # the overflow is in the report, not a numpy warning
    volume = json.loads(res.stdout)["results"]["volume"]
    assert volume["verdict"] == "inconclusive"
    dx = volume["per_index"]["dx_1"]
    assert dx["value"] is None and not dx["converged"] and dx["subdivisions"] == 0
    assert volume["per_index"]["dx_2"]["converged"]


def test_cli_overflow_in_worker_threads_prints_no_warning(tmp_path):
    # --jobs has no effect: both runs integrate serially under the CLI's
    # numpy error state and print no warning
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "simplices": [
            {"name": "e0", "dim": 1, "components": ["t", "0"]},
            {"name": "e1", "dim": 1, "components": ["1", "t"]},
            {"name": "e2", "dim": 1, "components": ["1 - t", "1 - t"]},
        ],
        "chains": [{"name": "loop", "terms": [
            {"simplex": "e0", "coeff": 1}, {"simplex": "e1", "coeff": 1}, {"simplex": "e2", "coeff": 1},
        ]}],
        "forms": [
            {"name": "steep", "degree": 1, "terms": [{"indices": [1], "coeff": "exp(1000*a1)"}]},
            {"name": "steeper", "degree": 1, "terms": [{"indices": [1], "coeff": "exp(2000*a1)"}]},
        ],
    }))
    reports = []
    for jobs in ("1", "2"):
        res = run_cli(["periods", str(loop), "--cycles", "loop", "--forms", "steep,steeper",
                       "--jobs", jobs, "--deterministic"], timeout=60)
        assert res.returncode == 1, res.stderr
        assert res.stderr == ""
        reports.append(json.loads(res.stdout)["results"]["periods"])
    assert reports[0] == reports[1]
    assert reports[0]["values"] == [[None, None]] and not reports[0]["converged"]


def test_cli_subdivide_complex_keeps_lower_dimensional_maximal_simplices(tmp_path):
    # a triangle and a separate hollow triangle: Betti numbers [2, 1, 0]
    src = tmp_path / "mixed.json"
    src.write_text(json.dumps({
        "schema": "periodlab/1",
        "complexes": [{"name": "mixed", "simplices": [[0, 1, 2], [3, 4], [4, 5], [3, 5]]}],
    }))
    out_file = tmp_path / "mixed_sd.json"
    res = run_cli(["subdivide", str(src), "--complex", "mixed", "--deterministic", "--out", str(out_file)])
    assert res.returncode == 0, res.stderr
    K = mf.load_manifest(str(out_file)).complexes["mixed_sd"]
    assert hm.homology(K).betti == [2, 1, 0]
    assert K.n_cells(2) == 6 and K.n_cells(1) == 12 + 6
    # a pure complex emits exactly its top simplices, as before
    out_file = tmp_path / "t7_sd.json"
    res = run_cli(["subdivide", "manifests/torus.json", "--complex", "T7", "--deterministic", "--out", str(out_file)])
    emitted = json.loads(out_file.read_text())["complexes"][0]["simplices"]
    Ksd = hm.barycentric_subdivide_complex(mf.load_manifest(str(MANIFESTS / "torus.json")).complexes["T7"])
    assert emitted == [list(s) for s in Ksd.simplices[2]]


def test_cli_subdivide_chain_roundtrip(tmp_path):
    out_file = tmp_path / "sd.json"
    res = run_cli(
        ["subdivide", "manifests/circle.json", "--chain", "gamma", "--deterministic",
         "--out", str(out_file)]
    )
    assert res.returncode == 0
    man = mf.load_manifest(str(out_file))
    sd = man.chains["gamma_sd"]
    assert len(sd) == 4


def test_cli_subdivide_of_an_empty_chain_keeps_the_ambient_dimension(tmp_path):
    # the output once said "ambient_dim": 0, so a 1-form added to it was an
    # input error ("form degree must lie between 0 and the ambient dimension")
    src, out_file = tmp_path / "empty.json", tmp_path / "sd.json"
    src.write_text(json.dumps({"schema": "periodlab/1", "ambient_dim": 2,
                               "chains": [{"name": "e", "degree": 1, "terms": []}]}))
    assert cli.run(["subdivide", str(src), "--chain", "e", "--deterministic", "--out", str(out_file)]) == 0
    out = json.loads(out_file.read_text())
    assert out["ambient_dim"] == 2
    out["forms"] = [{"name": "x_dy", "degree": 1, "terms": [{"coeff": "a1", "indices": [2]}]}]
    out_file.write_text(json.dumps(out))
    man = mf.load_manifest(str(out_file))
    assert man.chains["e_sd"].is_zero() and man.forms["x_dy"].ambient == 2


def test_cli_cone_emits_reingestible_manifest(tmp_path):
    out_file = tmp_path / "cone.json"
    res = run_cli(
        ["cone", "manifests/circle.json", "--simplex", "sqrt_graph", "--deterministic",
         "--out", str(out_file)]
    )
    assert res.returncode == 0
    man = mf.load_manifest(str(out_file))
    cone = man.simplices["sqrt_graph_cone"]
    assert cone.dim == 2 and cone.ambient == 2


def test_cli_cone_past_the_float64_floor_exits_0_or_1(tmp_path, capsys):
    # a graded prism cell of the cone over upper_sqrt freezes at 1e-14
    # instead of raising: a report, not an input error
    cone = tmp_path / "cone.json"
    assert cli.run(["cone", str(MANIFESTS / "circle.json"), "--simplex", "upper_sqrt", "--out", str(cone)]) == 0
    rc = cli.run(["check-volume", str(cone), "--simplex", "upper_sqrt_cone", "--tol", "1e-14", "--deterministic"])
    captured = capsys.readouterr()
    assert rc in (0, 1) and "Traceback" not in captured.err
    dx_1_2 = json.loads(captured.out)["results"]["volume"]["per_index"]["dx_1_2"]
    assert dx_1_2["diagnostics"]["frozen_cells"] >= 1


def test_cli_glue_roundtrip(tmp_path):
    out_file = tmp_path / "glued.json"
    res = run_cli(
        [
            "glue", "manifests/circle_upper.json", "manifests/circle_lower.json",
            "--table", "manifests/circle_btable.json", "--deterministic",
            "--out", str(out_file),
        ]
    )
    assert res.returncode == 0
    man = mf.load_manifest(str(out_file))
    T = man.triangulations["glued"]
    assert hm.homology(T.complex).betti == [1, 1]
    T.validate()


def test_cli_in_process_runner_matches_subprocess():
    # the console entry point and python -m dispatch share run()
    rc = cli.run(["homology", str(MANIFESTS / "complexes.json"), "--complex",
                  "hollow_triangle", "--deterministic", "--out", "/dev/null"])
    assert rc == 0


def _report_of(argv, tmp_path, code):
    out = tmp_path / "report.json"
    assert cli.run(argv + ["--deterministic", "--out", str(out)]) == code
    return json.loads(out.read_text())["results"]


def test_cli_reports_say_why_each_integral_stopped(tmp_path):
    (tmp_path / "maps.json").write_text(json.dumps({
        "schema": "periodlab/1",
        "ambient_dim": 2,
        "simplices": [
            {"name": "steep", "dim": 1, "components": ["exp(1000*t)", "t"]},
            {"name": "wild", "dim": 1, "components": ["t", "sin(1/t)"]},
        ],
    }))
    check = ["check-volume", str(tmp_path / "maps.json"), "--simplex"]
    diagnostics = {}
    for argv, code in [
        (SQRT_GRAPH_CHECK + ["--tol", "1e-15", "--max-depth", "3"], 1),
        (check + ["steep"], 1),
        (check + ["wild"], 1),
    ]:
        volume = _report_of(argv, tmp_path, code)["volume"]["per_index"]
        diagnostics[argv[-1] if argv[-1] != "3" else "sqrt_graph"] = {
            idx: r["diagnostics"] for idx, r in volume.items()
        }
    sqrt_graph, steep, wild = diagnostics["sqrt_graph"], diagnostics["steep"], diagnostics["wild"]
    assert sqrt_graph["dx_1"]["stop_reason"] == "tol"  # the graded x = t is a polynomial
    # the full tree of depth 3: 7 splits in 2 calls, the root's and one for
    # the whole tree below it, then its 8 leaves freeze
    assert sqrt_graph["dx_2"] == {"stop_reason": "frozen", "density_calls": 2, "cells": 15,
                                  "points": 15 * 7, "max_depth_reached": 3, "frozen_cells": 8}
    assert (steep["dx_1"]["stop_reason"], steep["dx_1"]["cells"]) == ("non_finite", 1)
    assert wild["dx_2"]["stop_reason"].startswith("diverging:")
    # the period matrix carries one diagnostics entry per value
    periods = _report_of(["periods", str(MANIFESTS / "circle.json"), "--cycles", "gamma,gamma_semialg",
                          "--forms", "dtheta,d_xy"], tmp_path, 0)["periods"]
    shape = [len(row) for row in periods["values"]]
    assert [len(row) for row in periods["diagnostics"]] == shape == [2, 2]
    for row in periods["diagnostics"]:
        for d in row:
            assert d["stop_reason"] == "tol" and d["frozen_cells"] == 0
            assert 0 < d["density_calls"] <= d["cells"] and d["points"] >= d["cells"]


@pytest.mark.parametrize("tol", ["1e-13", "1e-14", "1e-15"])
def test_cli_graded_charts_never_exit_2_at_the_float64_floor(tol, tmp_path, monkeypatch):
    # the float64 floor is reached within 300 cells; the default budget of
    # 20,000 only takes longer to end the same way
    monkeypatch.setattr(cli, "QuadConfig", functools.partial(QuadConfig, max_cells=300))
    circle = json.loads((MANIFESTS / "circle.json").read_text())
    circle["simplices"] += [
        {"name": "oval_upper", "dim": 1, "components": ["-t", "sqrt(t - t^3)"]},
        {"name": "oval_lower", "dim": 1, "components": ["t - 1", "-sqrt((t - 1)^3 - (t - 1))"]},
    ]
    manifest = tmp_path / "circle.json"
    manifest.write_text(json.dumps(circle))
    for simplex in ("upper_sqrt", "lower_sqrt", "sqrt_graph", "oval_upper", "oval_lower"):
        out = tmp_path / "report.json"
        code = cli.run(["check-volume", str(manifest), "--simplex", simplex, "--tol", tol,
                        "--deterministic", "--out", str(out)])
        volume = json.loads(out.read_text())["results"]["volume"]
        assert code == (0 if volume["verdict"] == "yes" else 1)
        assert volume["verdict"] in ("yes", "inconclusive")
        for r in volume["per_index"].values():
            assert r["converged"] == (r["diagnostics"]["stop_reason"] == "tol")
    periods = _report_of(["periods", str(manifest), "--cycles", "gamma_semialg", "--forms", "dtheta",
                          "--tol", tol], tmp_path, 1)["periods"]
    assert not periods["converged"]
    assert periods["diagnostics"][0][0]["frozen_cells"] >= 1
