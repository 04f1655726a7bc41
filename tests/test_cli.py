import contextlib
import functools
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import serialize
from zerosum.cli import main
from zerosum.expansion import ExpansionParams, expansion_cover
from zerosum.generators import fiber_union, random_cloud
from zerosum.group import AffineIso, GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import PipelineConfig, find_zero_sum
from zerosum.subsums import ZeroSumCertificate, find_zero_sum_subset
from zerosum.thickness import (
    GrowthFunction,
    TubularCertificate,
    decompose,
    strong_decompose,
    tube_decompose,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_instance(tmp_path, X, name="X.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.instance_to_json(X)))
    return str(path)


def test_olson_small(capsys):
    code, out = run_cli(capsys, "olson", "--p", "3", "--d", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["olson"] == 2 and rep["result"]["exact"]
    assert rep["timings"] is None

    code, out = run_cli(capsys, "olson", "--p", "5", "--d", "1")
    assert json.loads(out)["result"]["olson"] == 3


def test_olson_budget_interval(capsys):
    # large state space with a tiny node budget: interval answer, exact False
    code, out = run_cli(capsys, "olson", "--p", "101", "--d", "2", "--budget-ms", "200")
    assert code == 0
    res = json.loads(out)["result"]
    if not res["exact"]:
        assert res["olson"] is None
        assert res["lower"] <= res["upper"] == 2 * 100 + 1


def test_olson_zero_budget(capsys):
    code, out = run_cli(capsys, "olson", "--p", "5", "--d", "2", "--budget-ms", "0")
    assert code == 0
    res = json.loads(out)["result"]
    assert not res["exact"] and res["olson"] is None
    assert res["nodes"] == 1 and res["lower"] <= res["upper"] == 2 * 4 + 1


def test_olson_negative_budget_rejected(capsys):
    code = main(["olson", "--p", "5", "--d", "2", "--budget-ms", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error:")


def test_budget_ms_only_on_olson_and_bench(capsys):
    assert main(["bench", "--suite", "none", "--budget-ms", "10"]) == 0
    code = main(["gen", "--p", "5", "--d", "1", "--budget-ms", "10"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.startswith("error:")


def test_olson_naive_report(capsys):
    code, out = run_cli(capsys, "olson", "--p", "3", "--d", "2", "--naive")
    assert code == 0
    assert json.loads(out)["result"] == {
        "p": 3, "d": 2, "olson": 4, "exact": True, "witness": [[0, 1], [1, 0], [1, 1]],
        "lower": 4, "upper": 4, "nodes": 512,
    }


def test_gen_pipeline_verify_roundtrip(tmp_path, capsys):
    xpath = str(tmp_path / "X.json")
    code, _ = run_cli(
        capsys, "gen", "--kind", "fiber-union", "--p", "31", "--d", "2",
        "--n-fibers", "5", "--offset", "1", "--seed", "0", "--output", xpath,
    )
    assert code == 0
    tpath = str(tmp_path / "trace.json")
    code, out = run_cli(capsys, "pipeline", "--input", xpath, "--seed", "5", "--trace", tpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["status"] == "certificate"

    code, out = run_cli(capsys, "verify", "--input", tpath)
    assert code == 0
    assert json.loads(out)["result"]["all_passed"]

    # tampering with the certificate subset must fail verification
    blob = json.loads(open(tpath).read())
    blob["trace"]["result"]["subset"][0][1] = 2  # double one multiplicity
    bad = str(tmp_path / "tampered.json")
    open(bad, "w").write(json.dumps(blob))
    code, out = run_cli(capsys, "verify", "--input", bad)
    assert code == 2
    checks = {c["name"]: c["passed"] for c in json.loads(out)["result"]["checks"]}
    assert not checks["certificate"]


def test_pipeline_exit_codes(tmp_path, capsys):
    small = random_cloud(GroupParams(31, 2), 8, seed=2)
    xpath = write_instance(tmp_path, small)
    code, out = run_cli(capsys, "pipeline", "--input", xpath, "--seed", "0")
    assert code == 2
    failure = json.loads(out)["result"]["failure"]
    assert failure["inequality"]["name"] == "weight_sum_hypothesis"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "pipeline", "--input", str(bad))
    assert code == 1

    code, _ = run_cli(capsys, "pipeline")  # missing required --input
    assert code == 1


def test_pipeline_huge_iterated_growth_fails_by_name(tmp_path, capsys):
    # 4K+4 iterated over the 90 parts of this cloud passes 2^63; the run must
    # end in the named budget failure, not an overflow traceback
    xpath = str(tmp_path / "X.json")
    code, _ = run_cli(
        capsys, "gen", "--kind", "random-cloud", "--p", "31", "--d", "2",
        "--size", "90", "--seed", "3", "--output", xpath,
    )
    assert code == 0
    code, out = run_cli(capsys, "pipeline", "--input", xpath, "--growth", "4K+4", "--seed", "1")
    assert code == 2
    failure = json.loads(out)["result"]["failure"]
    assert failure["inequality"]["name"] == "part_count_within_budget"


def test_decompose_past_the_iterate_cap_fails_by_name(tmp_path, capsys):
    # two offset fibers of F_31^3 push the default 4K+4 growth past the
    # iterate cap; decompose reports it as pipeline does, not as a traceback
    xpath = str(tmp_path / "X.json")
    gen = ["gen", "--kind", "fiber-union", "--p", "31", "--d", "3", "--n-fibers", "2"]
    assert main(gen + ["--offset", "1", "--seed", "1", "--output", xpath]) == 0
    code = main(["decompose", "--input", xpath])
    captured = capsys.readouterr()
    assert code == 2
    failure = json.loads(captured.out)["result"]["failure"]
    assert failure["stage"] == "decompose"
    assert failure["inequality"] == {"name": "iterate_exponent_within_cap", "lhs": 33, "op": "<=", "rhs": 32}
    assert "Traceback" not in captured.err


def test_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a produced certificate that fails its own check is a bug, not a usage
    # error: exit 3 with the failed invariant as JSON on stderr
    X = fiber_union(GroupParams(31, 2), 5, seed=3, offset=2)
    xpath = write_instance(tmp_path, X)
    monkeypatch.setattr(ZeroSumCertificate, "verify", lambda self, A: False)
    code = main(["pipeline", "--input", xpath, "--seed", "11"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "invariant",
        "name": "certificate_verifies",
        "lhs": False,
        "op": "==",
        "rhs": True,
    }


def test_find_zero_sum_and_subsums(tmp_path, capsys):
    X = random_cloud(GroupParams(11, 2), 30, seed=4)
    xpath = write_instance(tmp_path, X)
    code, out = run_cli(capsys, "subsums", "--input", xpath)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["reachable"] >= 1 and isinstance(res["bitset_le_b64"], str)

    code, out = run_cli(capsys, "find-zero-sum", "--input", xpath)
    assert code == 0
    payload = json.loads(out)["result"]
    if payload["status"] == "certificate":
        code, out = run_cli(
            capsys, "verify", "--input",
            _write_json(tmp_path, payload["certificate"], "cert.json"),
        )
        assert code == 0 and json.loads(out)["result"]["all_passed"]


def _write_json(tmp_path, obj, name):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_nul_command(capsys):
    code, out = run_cli(
        capsys, "nul", "--p", "5", "--d", "1", "--points", "1;2", "--weights", "5,5", "--r", "1"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["status"] == "solution"
    a1, a2 = res["coefficients"]
    assert (a1 + 2 * a2) % 5 == 0


def test_decompose_tube_artifacts_verify(tmp_path, capsys):
    X = fiber_union(GroupParams(31, 2), 2, seed=0, offset=0)
    xpath = write_instance(tmp_path, X)
    code, out = run_cli(capsys, "decompose", "--input", xpath, "--epsilon", "1/2", "--growth", "K+1")
    assert code == 0
    dec_artifact = json.loads(out)["result"]
    code, out = run_cli(
        capsys, "verify", "--input", _write_json(tmp_path, dec_artifact, "dec.json")
    )
    assert code == 0 and json.loads(out)["result"]["all_passed"]

    code, out = run_cli(capsys, "tube", "--input", xpath, "--growth", "K+1")
    assert code == 0
    tube_artifact = json.loads(out)["result"]["certificate"]
    code, out = run_cli(
        capsys, "verify", "--input", _write_json(tmp_path, tube_artifact, "tube.json")
    )
    assert code == 0 and json.loads(out)["result"]["all_passed"]


def _verify_exit(tmp_path, capsys, artifact):
    """(exit code, report or None, stderr) of `verify` on an artifact."""
    code = main(["verify", "--input", _write_json(tmp_path, artifact, "artifact.json")])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out else None), captured.err


def test_verify_caps_forged_growth(tmp_path, capsys):
    # "2^K" at K = 10^12 is a 10^12-bit integer; the scans read a radius only
    # up to p, so verify evaluates the growth capped at p and stays quick
    xpath = str(tmp_path / "X.json")
    gen = ["gen", "--kind", "random-cloud", "--p", "11", "--d", "2", "--seed", "3"]
    assert main(gen + ["--output", xpath]) == 0
    code, out = run_cli(capsys, "decompose", "--input", xpath)
    assert code == 0
    artifact = json.loads(out)["result"]
    _code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    names = [c["name"] for c in rep["result"]["checks"]]
    artifact.update(growth="2^K", K=10 ** 12)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))\n"
        "from zerosum.cli import main\n"
        "raise SystemExit(main(['verify', '--input', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _write_json(tmp_path, artifact, "forged.json")],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert [c["name"] for c in json.loads(proc.stdout)["result"]["checks"]] == names


def test_verify_rejects_singular_tubular_psi(tmp_path, capsys):
    # a zero psi maps every point to 0, which sits in any box: without an
    # invertibility check this false certificate passed with l = d
    X = random_cloud(GroupParams(31, 2), 60, seed=0)
    cert = TubularCertificate(
        X.params, 2, AffineIso(((0, 0), (0, 0)), (0, 0)), 0, 1, Fraction(1, 16), ()
    )
    code, rep, _ = _verify_exit(tmp_path, capsys, serialize.tubular_to_json(X, cert))
    assert code == 2 and not rep["result"]["all_passed"]


def _tube_artifact(tmp_path, capsys):
    X = fiber_union(GroupParams(31, 2), 2, seed=0, offset=0)
    code, out = run_cli(capsys, "tube", "--input", write_instance(tmp_path, X), "--growth", "K+1")
    assert code == 0
    return json.loads(out)["result"]["certificate"]


def test_verify_rejects_misshapen_psi(tmp_path, capsys):
    artifact = _tube_artifact(tmp_path, capsys)
    artifact["psi"]["matrix"][0] = artifact["psi"]["matrix"][0] + [0]  # 3 entries in d = 2
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and err.startswith("error:")


def test_verify_reduces_huge_psi_entries(tmp_path, capsys):
    # entries past 2^63 are reduced mod p exactly; the certificate still holds
    artifact = _tube_artifact(tmp_path, capsys)
    offset = 31 * 2 ** 70
    psi = artifact["psi"]
    psi["matrix"] = [[a + offset for a in row] for row in psi["matrix"]]
    psi["shift"] = [s + offset for s in psi["shift"]]
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 0 and rep["result"]["all_passed"]


@pytest.mark.parametrize("field", ["K", "K_prime"])
def test_verify_rejects_negative_tubular_radius(tmp_path, capsys, field):
    # a negative radius used to reach the scan and fail there with a numpy
    # broadcast message that named no field
    artifact = _tube_artifact(tmp_path, capsys)
    artifact[field] = -3
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and f"{field} = -3 is negative" in err


def _two_lines_strong_artifact():
    """Two lines of F_31^2: delta = delta0 = 18/31, mu = mu0 = 1/2, no sweep
    removals, three union certificates."""
    params = GroupParams(31, 2)
    X = GroupMultiset.from_points(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    return serialize.strong_decomposition_to_json(
        X, strong_decompose(X, 0, Fraction(1, 4), GrowthFunction("affine", 1, 1))
    )


def _failing(rep):
    return {c["name"] for c in rep["result"]["checks"] if not c["passed"]}


def test_verify_strong_decomposition_subset_certificates(tmp_path, capsys):
    artifact = _two_lines_strong_artifact()
    assert len(artifact["subset_certs"]) == 3
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 0 and rep["result"]["all_passed"]
    for i in range(3):  # the false certificate above fails whichever union it certifies
        bad = json.loads(json.dumps(artifact))
        bad["subset_certs"][i].update(
            l=2, K=0, psi={"matrix": [[0, 0], [0, 0]], "shift": [0, 0]}
        )
        code, rep, _ = _verify_exit(tmp_path, capsys, bad)
        assert code == 2
        assert dict((c["name"], c["passed"]) for c in rep["result"]["checks"])["tubular_certs"] is False
    # every one of the 2^m - 1 unions needs a certificate
    bad = json.loads(json.dumps(artifact))
    del bad["subset_certs"][0]
    code, rep, _ = _verify_exit(tmp_path, capsys, bad)
    assert code == 2 and not rep["result"]["all_passed"]


def _halve(text):
    return str(Fraction(text) / 2)


FORGED_STRONG = {
    "mu": (lambda a: a.update(mu="1"), "mu"),
    "mu0": (lambda a: a.update(mu0="1"), "delta_schedule"),
    "delta0": (lambda a: a.update(delta0="1"), "delta_schedule"),
    "removed_in_sweeps": (lambda a: a.update(removed_in_sweeps=999), "removed_in_sweeps"),
    "delta": (lambda a: a.update(delta="1/2"), "delta"),
    # the product mu0 * delta0 = 9/31 is kept, so the schedule still holds
    # and only delta >= delta0/2 fails
    "delta0_same_product": (lambda a: a.update(delta0="37/31", mu0="9/37"), "delta0"),
    "achieved": (lambda a: a["subset_certs"][0].update(achieved="1"), "achieved"),
    "delta_schedule": (
        lambda a: a["subset_certs"][1].update(delta_schedule=_halve(a["subset_certs"][1]["delta_schedule"])),
        "delta_schedule",
    ),
    "cert_delta": (
        lambda a: a["subset_certs"][2].update(delta=_halve(a["subset_certs"][2]["delta"])),
        "delta_schedule",
    ),
    # the certificates' radii are K = g(3) = 4 and K' = g(4) = 5: a box of
    # radius 10^6 holds anything, and K' = 6 rescans at a radius no sweep
    # used, its achieved fraction 18/31 recorded to match
    "cert_K": (lambda a: [sc.update(K=10**6) for sc in a["subset_certs"]], "tubular_certs"),
    "cert_K_prime": (lambda a: a["subset_certs"][0].update(K_prime=6, achieved="18/31"), "tubular_certs"),
}


@pytest.mark.parametrize("field", sorted(FORGED_STRONG))
def test_verify_rederives_strong_decomposition_numbers(tmp_path, capsys, field):
    forge, check = FORGED_STRONG[field]
    artifact = _two_lines_strong_artifact()
    forge(artifact)
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 2 and _failing(rep) == {check}


@pytest.mark.parametrize(
    "forge, field",
    [
        (lambda a: a["subset_certs"][0].update(K_prime=-3), "K_prime"),
        (lambda a: a["subset_certs"][1].update(K=-3), "K"),
        (lambda a: a.update(K=-3), "K"),
    ],
    ids=["cert_K_prime", "cert_K", "K"],
)
def test_verify_rejects_negative_strong_radius(tmp_path, capsys, forge, field):
    artifact = _two_lines_strong_artifact()
    forge(artifact)
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and f"{field} = -3 is negative" in err


@pytest.mark.parametrize("field, value", [("l", -5), ("K0", -1)])
def test_verify_rejects_negative_strong_exponent(tmp_path, capsys, field, value):
    artifact = _two_lines_strong_artifact()
    artifact[field] = value
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and f"{field} = {value} is negative" in err


@pytest.mark.parametrize("fields", [dict(l=10 ** 30), dict(l=4), dict(K0=1)], ids=["l_huge", "l", "K0"])
def test_verify_ties_strong_radius_to_K0(tmp_path, capsys, fields):
    # recorded l = 3, K0 = 0 and K = g^3(0) = 3 for g = K+1; l = 10^30
    # iterates from K0 only until the radius reaches p
    artifact = _two_lines_strong_artifact()
    assert (artifact["l"], artifact["K0"], artifact["K"]) == (3, 0, 3)
    artifact.update(fields)
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 2 and _failing(rep) == {"K"}


def test_verify_rejects_negative_decomposition_radius(tmp_path, capsys):
    X = fiber_union(GroupParams(31, 2), 2, seed=0, offset=0)
    artifact = serialize.decomposition_to_json(X, decompose(X, 0, Fraction(1, 2), GrowthFunction("affine", 1, 1)))
    artifact["K"] = -3
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and "K = -3 is negative" in err


@pytest.mark.parametrize("field, value", [("delta", "1/2"), ("mu", "1/3")])
def test_verify_rederives_decomposition_numbers(tmp_path, capsys, field, value):
    # the real values are delta = 26/31 and mu = 1/2: smaller ones still
    # bound every part, but they are not what the parts give
    X = fiber_union(GroupParams(31, 2), 2, seed=0, offset=0)
    artifact = serialize.decomposition_to_json(X, decompose(X, 0, Fraction(1, 2), GrowthFunction("affine", 1, 1)))
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 0 and rep["result"]["all_passed"]
    artifact[field] = value
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 2 and _failing(rep) == {field}


def _decomposition_artifact(n_fibers, seed, offset):
    X = fiber_union(GroupParams(31, 2), n_fibers, seed=seed, offset=offset)
    return serialize.decomposition_to_json(
        X, decompose(X, 0, Fraction(1, 2), GrowthFunction("affine", 1, 1))
    )


FORGED_DECOMPOSITION = {
    # recorded l = 1, K0 = 0, K = 1, delta = 26/31; at K = 2 the parts give
    # delta = 24/31, so only the tie K = g^l(K0) = 1 catches it
    "K": ((3, 1, 2), dict(K=2, delta="24/31"), "K"),
    # recorded l = 0, K0 = K = 0, delta = 1/4; at K = 1 the single part is
    # thin everywhere, and K0 = 1 keeps K tied
    "delta_zero": ((4, 3, 1), dict(K=1, K0=1, delta="0"), "delta_positive"),
}


@pytest.mark.parametrize("name", sorted(FORGED_DECOMPOSITION))
def test_verify_rejects_forged_decomposition_radius(tmp_path, capsys, name):
    args, fields, check = FORGED_DECOMPOSITION[name]
    artifact = _decomposition_artifact(*args)
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 0 and rep["result"]["all_passed"]
    artifact.update(fields)
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 2 and _failing(rep) == {check}


def test_verify_ties_forged_exponent_in_p_steps(tmp_path, capsys):
    # l = 10^18 iterates from K0 only until the radius reaches p
    artifact = _decomposition_artifact(3, 1, 2)
    artifact["l"] = 10 ** 18
    code, rep, _ = _verify_exit(tmp_path, capsys, artifact)
    assert code == 2 and _failing(rep) == {"K"}


@pytest.mark.parametrize("field", ["l", "K0"])
def test_verify_rejects_negative_decomposition_exponent(tmp_path, capsys, field):
    artifact = _decomposition_artifact(3, 1, 2)
    artifact[field] = -1
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and f"{field} = -1 is negative" in err


def test_verify_rejects_forged_numbers_under_optimize_flag(tmp_path):
    artifact = _two_lines_strong_artifact()
    artifact.update(mu="1", mu0="1", delta0="1", removed_in_sweeps=999)
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "from zerosum.cli import main\n"
        "raise SystemExit(main(['verify', '--input', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, _write_json(tmp_path, artifact, "forged.json")],
        capture_output=True,
        text=True,
        timeout=120,
        # no .pyc files: an -O child would leave *.opt-1.pyc files in src
        env={
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 2, proc.stderr
    assert _failing(json.loads(proc.stdout)) == {"mu", "delta_schedule", "removed_in_sweeps"}


def test_expand_command(tmp_path, capsys):
    params = GroupParams(11, 1)
    fibers_payload = {
        "p": 11,
        "d": 1,
        "l": 0,
        "fibers": [
            {"label": [], "entries": [{"element": [i], "multiplicity": 1} for i in range(11)]}
        ],
    }
    fpath = _write_json(tmp_path, fibers_payload, "fibers.json")
    code, out = run_cli(capsys, "expand", "--input", fpath, "--seed", "1")
    assert code == 0
    cover_artifact = json.loads(out)["result"]["cover"]
    code, out = run_cli(
        capsys, "verify", "--input", _write_json(tmp_path, cover_artifact, "cover.json")
    )
    assert code == 0 and json.loads(out)["result"]["all_passed"]


def test_expand_verify_rejects_corrupt_first_step(tmp_path, capsys):
    fibers_payload = {
        "p": 11,
        "d": 1,
        "l": 0,
        "fibers": [
            {"label": [], "entries": [{"element": [i], "multiplicity": 1} for i in range(11)]}
        ],
    }
    fpath = _write_json(tmp_path, fibers_payload, "fibers.json")
    code, out = run_cli(capsys, "expand", "--input", fpath, "--seed", "1")
    assert code == 0
    cover_artifact = json.loads(out)["result"]["cover"]
    assert "coverage" not in cover_artifact
    code, out = run_cli(
        capsys, "verify", "--input", _write_json(tmp_path, cover_artifact, "cover.json")
    )
    assert code == 0 and json.loads(out)["result"]["all_passed"]
    cover_artifact["first_step"] = [0] + [1] * 10
    code, out = run_cli(
        capsys, "verify", "--input", _write_json(tmp_path, cover_artifact, "bad.json")
    )
    checks = {c["name"]: c["passed"] for c in json.loads(out)["result"]["checks"]}
    assert code == 2 and checks["covers_all_targets"] is False


def test_verify_rejects_source_disagreeing_with_relation(tmp_path, capsys):
    # a pair's source is read off its relation; a stored source that says
    # otherwise makes the artifact malformed
    X = {"label": [], "entries": [{"element": [i], "multiplicity": 1} for i in range(11)]}
    fpath = _write_json(tmp_path, {"p": 11, "d": 1, "l": 0, "fibers": [X]}, "fibers.json")
    code, out = run_cli(capsys, "expand", "--input", fpath, "--seed", "1")
    assert code == 0
    cover_artifact = json.loads(out)["result"]["cover"]
    assert {pair["source"] for pair in cover_artifact["pairs"]} == {"fiber-pair"}
    cover_artifact["pairs"][0]["source"] = "relation"
    code, rep, err = _verify_exit(tmp_path, capsys, cover_artifact)
    assert code == 1 and rep is None and "disagrees with its relation" in err


def test_huge_prime_exits_1_quickly(tmp_path):
    """p = 2^61 - 1 fails the state budget before any primality test: by
    trial division it would take minutes."""
    big = 2 ** 61 - 1
    instance = {"schema_version": 1, "kind": "instance", "p": big, "d": 1, "entries": [[1]]}
    script = (
        "import contextlib, io, sys, time\n"
        "from zerosum.cli import main\n"
        "for argv in (['olson', '--p', sys.argv[1], '--d', '1'], ['verify', '--input', sys.argv[2]]):\n"
        "    start = time.monotonic()\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        code = main(argv)\n"
        "    print(code, time.monotonic() - start, 'state budget' in err.getvalue())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(big), _write_json(tmp_path, instance, "big.json")],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        code, seconds, named = line.split()
        assert code == "1" and float(seconds) < 1 and named == "True"


@pytest.mark.parametrize("p", [271, 277])
def test_olson_past_22_seed_elements_keeps_its_budget(p):
    """The search's seed, 22 elements at p = 271 and 23 at p = 277, is
    checked by the reach kernel, and the 500 ms budget counts from entry:
    a 2^n enumeration of the seed ran past 20 s at p = 271 and refused
    p = 277."""
    script = "import sys\nfrom zerosum.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script, "olson", "--p", str(p), "--d", "1", "--budget-ms", "500"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["result"]
    assert res["exact"] is False and res["olson"] is None and res["upper"] == p
    assert elapsed < 5, f"took {elapsed:.2f} s"


def test_verify_zero_denominator_exits_1(tmp_path, capsys):
    artifact = _two_lines_strong_artifact()
    artifact["mu"] = "1/0"
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and "zero denominator" in err


def test_verify_non_string_growth_exits_1(tmp_path, capsys):
    for growth in (5, {"kind": "affine"}):
        artifact = _two_lines_strong_artifact()
        artifact["growth"] = growth
        code, rep, err = _verify_exit(tmp_path, capsys, artifact)
        assert code == 1 and rep is None and "growth must be a string" in err


def test_verify_huge_multiplicity_exits_1(tmp_path, capsys):
    # int64 multiplicity arrays and len() end at 2^63 - 1
    for mults, code_wanted in (([2 ** 63 - 1], 0), ([2 ** 63], 1), ([10 ** 19], 1), ([2 ** 62] * 2, 1)):
        artifact = {
            "schema_version": 1, "kind": "instance", "p": 31, "d": 2,
            "entries": [{"element": [1, k], "multiplicity": m} for k, m in enumerate(mults)],
        }
        code, rep, err = _verify_exit(tmp_path, capsys, artifact)
        assert code == code_wanted
        if code == 1:
            assert rep is None and "2^63 or more" in err


def test_verify_union_past_2_63_exits_1(tmp_path, capsys):
    # each part is a valid multiset, but their union would count 2^63 points
    artifact = _two_lines_strong_artifact()
    for k, part in enumerate(artifact["parts"]):
        part[:] = [{"element": [k, 0], "multiplicity": 2 ** 62}]
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and "x0 and the parts hold 2^63 or more points" in err
    assert "Traceback" not in err


def _shape_trace():
    """A certifying-shaped pipeline trace with one stage and one identity."""
    X = GroupMultiset.from_points(GroupParams(5, 1), [(1,), (4,)])
    return serialize.trace_to_json(
        X,
        {
            "stages": [{"stage": "assemble", "identities": [{"name": "sum", "lhs": [0], "rhs": [0]}]}],
            "result": {"status": "certificate", "subset": [[[1], 1], [[4], 1]]},
        },
    )


TRACE_SHAPES = {
    "trace": (lambda t: t.update(trace=[]), "trace must be an object"),
    "stages": (lambda t: t["trace"].update(stages="assemble"), "stages must be a list"),
    "stage": (lambda t: t["trace"]["stages"].__setitem__(0, "assemble"), "stages[0] must be an object"),
    "identities": (
        lambda t: t["trace"]["stages"][0].update(identities={"name": "sum"}),
        "stages[0].identities must be a list",
    ),
    "identity": (
        lambda t: t["trace"]["stages"][0]["identities"].__setitem__(0, 7),
        "stages[0].identities[0] must be an object",
    ),
    "inequality": (
        lambda t: t["trace"]["stages"][0].update(outcome="failure", inequality=[1]),
        "stages[0].inequality must be an object",
    ),
    "result": (lambda t: t["trace"].update(result="certificate"), "result must be an object"),
}


@pytest.mark.parametrize("field", sorted(TRACE_SHAPES))
def test_verify_trace_of_wrong_shape_exits_1(tmp_path, capsys, field):
    code, rep, _ = _verify_exit(tmp_path, capsys, _shape_trace())
    assert code == 0 and rep["result"]["all_passed"]
    forge, message = TRACE_SHAPES[field]
    artifact = _shape_trace()
    forge(artifact)
    code, rep, err = _verify_exit(tmp_path, capsys, artifact)
    assert code == 1 and rep is None and message in err
    assert "Traceback" not in err


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_expand_large_fiber_memory_bounded(tmp_path):
    # one fiber of 1000 points of F_53^2 has 999,000 ordered pairs: about
    # 110 MB of arrays when built at once, a few MB when built in blocks.
    # The peak is the child's VmHWM: its ru_maxrss would start at the RSS of
    # the process that forked it, so under pytest both runs would read
    # pytest's peak and the bound would hold whatever `expand` does.
    script = (
        "import contextlib, io, sys\n"
        "from zerosum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['expand', '--input', sys.argv[1], '--seed', '1'])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(code, next(int(l.split()[1]) for l in f if l.startswith('VmHWM')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    grid = [(x, y) for x in range(53) for y in range(53)]

    def peak_kb(n):
        points = random.Random(0).sample(grid, n)
        payload = {
            "p": 53,
            "d": 2,
            "l": 0,
            "fibers": [
                {"label": [], "entries": [{"element": list(x), "multiplicity": 1} for x in points]}
            ],
        }
        proc = subprocess.run(
            [sys.executable, "-c", script, _write_json(tmp_path, payload, f"fiber{n}.json")],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return tuple(map(int, proc.stdout.split()))

    # ten points stagnate (exit 2) after the same imports and a small cover
    (small_code, small), (code, large) = peak_kb(10), peak_kb(1000)
    assert small_code == 2 and code == 0
    assert large - small < 40 * 1024, f"peak RSS grew by {(large - small) // 1024} MB"


def test_verify_many_part_strong_artifact_memory_bounded(tmp_path):
    # 400 parts of F_61^2 with three union certificates: the count is wrong,
    # so no union is walked and no part table is built.  One cumulative
    # table per part would take 113k cells each, about 45 MB in all.
    script = (
        "import contextlib, io, sys\n"
        "from zerosum.cli import main\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM'))\n"
        "before = peak_kb()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--input', sys.argv[1]])\n"
        "print(code, peak_kb() - before)\n"
    )
    artifact = _two_lines_strong_artifact()
    points = [(x, y) for x in range(20) for y in range(30)]
    # 200 single points, then 200 two-point parts: lines, thin in their hulls
    parts = [[pt] for pt in points[:200]] + [points[k : k + 2] for k in range(200, 600, 2)]

    def entries(pts):
        return {"entries": [{"element": list(pt), "multiplicity": 1} for pt in pts]}

    artifact.update(p=61, input=entries(points), parts=[entries(part) for part in parts])
    proc = subprocess.run(
        [sys.executable, "-c", script, _write_json(tmp_path, artifact, "many.json")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    code, grown_kb = map(int, proc.stdout.split())
    assert code == 2
    assert grown_kb < 4 * 1024, f"peak RSS grew by {grown_kb // 1024} MB"


def test_bench_empty_suite(capsys):
    code, out = run_cli(capsys, "bench", "--suite", "none")
    assert code == 0
    assert out.strip() == "suite,name,p,d,n,seconds"


def test_gen_determinism(tmp_path, capsys):
    args = ["gen", "--kind", "random-cloud", "--p", "13", "--d", "2", "--size", "20", "--seed", "9"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_report_embeds_seed_and_version(capsys, monkeypatch):
    # the code is single-threaded whatever the environment says
    monkeypatch.setenv("ZEROSUM_THREADS", "8")
    code, out = run_cli(capsys, "olson", "--p", "3", "--d", "1", "--seed", "17")
    rep = json.loads(out)
    assert rep["seed"] == 17
    assert rep["artifact_version"]
    assert rep["schema_version"] == 1
    assert rep["threads"] == 1


def test_verify_failure_trace_and_tamper(tmp_path, capsys):
    small = random_cloud(GroupParams(31, 2), 8, seed=2)
    xpath = write_instance(tmp_path, small)
    tpath = str(tmp_path / "fail_trace.json")
    code, _ = run_cli(capsys, "pipeline", "--input", xpath, "--seed", "0", "--trace", tpath)
    assert code == 2
    code, out = run_cli(capsys, "verify", "--input", tpath)
    assert code == 0 and json.loads(out)["result"]["all_passed"]

    # tamper: pretend the violated inequality held after all
    blob = json.loads(open(tpath).read())
    for stage in blob["trace"]["stages"]:
        if stage.get("outcome") == "failure":
            stage["inequality"]["lhs"] = stage["inequality"]["rhs"]
    bad = str(tmp_path / "bad_trace.json")
    open(bad, "w").write(json.dumps(blob))
    code, out = run_cli(capsys, "verify", "--input", bad)
    assert code == 2
    names = {c["name"]: c["passed"] for c in json.loads(out)["result"]["checks"]}
    assert any("failure_re_violates" in n and not ok for n, ok in names.items())


@pytest.mark.parametrize(
    "command, payload",
    [
        ("subsums", [[1, 2], [3, 4]]),
        ("find-zero-sum", [[1, 2], [3, 4]]),
        ("pipeline", {"p": 31, "d": 2, "entries": 7}),
        ("verify", [{"kind": "instance"}]),
        ("expand", {"p": 11, "d": 1, "l": 0}),
        # l outside [0, d], a label without l coordinates, a cover's l outside [0, d]
        ("expand", {"p": 11, "d": 2, "l": 3, "fibers": [{"label": [0, 0, 0], "entries": [[0, 1]]}]}),
        ("expand", {"p": 11, "d": 2, "l": -1, "fibers": [{"label": [], "entries": [[0, 1]]}]}),
        ("expand", {"p": 11, "d": 2, "l": 1, "fibers": [{"label": [0, 0], "entries": [[0, 1], [0, 3]]}]}),
        (
            "verify",
            {
                "schema_version": 1, "kind": "expansion_cover", "p": 11, "d": 2, "l": -1,
                "fibers": [], "pairs": [], "base": [0, 0], "k": 0, "first_step": [0],
            },
        ),
        # labels congruent mod p: two fibers in one slab
        (
            "expand",
            {
                "p": 11, "d": 2, "l": 1,
                "fibers": [
                    {"label": [0], "entries": [[0, 1], [0, 2]]},
                    {"label": [11], "entries": [[0, 2], [0, 3]]},
                ],
            },
        ),
    ],
)
def test_malformed_input_exits_1(tmp_path, capsys, command, payload):
    path = _write_json(tmp_path, payload, "bad.json")
    code = main([command, "--input", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_non_finite_number_exits_1(tmp_path, capsys):
    # Python's json reads 1e400 as inf and accepts Infinity and NaN; each
    # used to raise an OverflowError traceback from whichever field held it
    artifact = _decomposition_artifact(3, 1, 2)
    text = json.dumps(artifact)
    for number in ("1e400", "-1e400", "Infinity", "-Infinity", "NaN"):
        path = tmp_path / "artifact.json"
        path.write_text(text.replace('"K0": 0', f'"K0": {number}'))
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"non-finite number {number}" in captured.err


def test_expansion_failure_re_violates(tmp_path, capsys):
    """A run that fails in the thinning stage's expansion branch: the
    fibers of this cloud carry too few pairs for the cover to grow.  Its
    failure re-evaluates to a violated inequality, in process and in the
    trace that `verify` re-checks."""
    X = random_cloud(GroupParams(31, 2), 50, seed=0)
    res = find_zero_sum(X, PipelineConfig(seed=0))
    failure = res.failure
    assert not res.ok
    assert (failure.stage, failure.name) == ("expansion", "cover_growth")
    assert failure.context["reason"] == "no available pairs"
    assert failure.holds() is False

    xpath = write_instance(tmp_path, X)
    tpath = str(tmp_path / "trace.json")
    code, out = run_cli(capsys, "pipeline", "--input", xpath, "--seed", "0", "--trace", tpath)
    assert code == 2
    assert json.loads(out)["result"]["failure"] == failure.as_dict()
    code, out = run_cli(capsys, "verify", "--input", tpath)
    assert code == 0
    checks = {c["name"]: c["passed"] for c in json.loads(out)["result"]["checks"]}
    assert checks["expansion:failure_re_violates"] and all(checks.values())


def _failing_trace(tmp_path, capsys):
    xpath = write_instance(tmp_path, random_cloud(GroupParams(31, 2), 8, seed=2))
    tpath = str(tmp_path / "fail_trace.json")
    code, _ = run_cli(capsys, "pipeline", "--input", xpath, "--seed", "0", "--trace", tpath)
    assert code == 2
    return json.loads(open(tpath).read())


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_verify_trace_inequality_with_zero_denominator_exits_1(tmp_path, capsys, side):
    blob = _failing_trace(tmp_path, capsys)
    failures = [s for s in blob["trace"]["stages"] if s.get("outcome") == "failure"]
    assert failures
    failures[0]["inequality"][side] = "1/0"
    code, rep, err = _verify_exit(tmp_path, capsys, blob)
    assert code == 1 and rep is None and "zero denominator" in err


# -- one-leaf mutations of every artifact kind ----------------------------------


@functools.lru_cache(maxsize=None)
def _fuzz_artifacts():
    """One small artifact of each kind `verify` reads, as JSON text."""
    params = GroupParams(11, 2)
    X = random_cloud(params, 12, seed=4)
    g = GrowthFunction("affine", 1, 1)
    lines = fiber_union(GroupParams(13, 2), 2, seed=0, offset=0)
    _Y, tube = tube_decompose(lines, 0, Fraction(1, 16), g)
    p11 = GroupParams(11, 2)
    counts = {-1: (2, 2, 1), 0: (3, 3, 1), 1: (1, 3, 3)}
    collinear = {
        (lab,): GroupMultiset.from_points(
            p11, [(lab % 11, v) for v, m in enumerate(mult) for _ in range(m)]
        )
        for lab, mult in counts.items()
    }
    favorable = fiber_union(GroupParams(13, 2), 9, seed=0, offset=1)
    failing = random_cloud(GroupParams(31, 2), 8, seed=2)
    artifacts = {
        "instance": serialize.instance_to_json(X),
        "certificate": serialize.certificate_to_json(X, find_zero_sum_subset(X)),
        "tube": serialize.tubular_to_json(lines, tube),
        "decomposition": serialize.decomposition_to_json(lines, decompose(lines, 0, Fraction(1, 2), g)),
        "strong": _two_lines_strong_artifact(),
        "cover": serialize.cover_to_json(expansion_cover(collinear, 1, ExpansionParams(seed=0))),
        "trace": serialize.trace_to_json(favorable, find_zero_sum(favorable, PipelineConfig(seed=0)).trace),
        "failing_trace": serialize.trace_to_json(failing, find_zero_sum(failing, PipelineConfig(seed=0)).trace),
    }
    return {kind: json.dumps(obj) for kind, obj in artifacts.items()}


def _leaves(obj, path=()):
    """Paths of the scalars and empty containers in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    items = list(items)
    if not items:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


_DELETE = object()
_OVERFLOW = "overflowing-float"  # written as the JSON number 1e400
MUTATIONS = (None, 1, -1, 10 ** 30, "x", "1/0", [1], {"a": 1}, 0.5, True, _OVERFLOW, _DELETE)


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


@settings(max_examples=160, deadline=None)
@given(st.data())
def test_verify_survives_one_leaf_mutations(data):
    kind = data.draw(st.sampled_from(sorted(_fuzz_artifacts())), label="kind")
    artifact = json.loads(_fuzz_artifacts()[kind])
    *head, last = data.draw(st.sampled_from(_leaves(artifact)), label="leaf")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    parent = artifact
    for key in head:
        parent = parent[key]
    if mutation is _DELETE:
        del parent[last]
    else:
        parent[last] = mutation
    text = json.dumps(artifact).replace(json.dumps(_OVERFLOW), "1e400")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.json")
        with open(path, "w") as fh:
            fh.write(text)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--input", path])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
