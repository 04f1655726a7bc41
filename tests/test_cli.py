import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zerosum import serialize
from zerosum.cli import main
from zerosum.generators import fiber_union, random_cloud
from zerosum.group import AffineIso, GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.subsums import ZeroSumCertificate
from zerosum.thickness import GrowthFunction, TubularCertificate, strong_decompose


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


def test_verify_strong_decomposition_subset_certificates(tmp_path, capsys):
    params = GroupParams(31, 2)
    X = GroupMultiset.from_points(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    artifact = serialize.strong_decomposition_to_json(
        X, strong_decompose(X, 0, Fraction(1, 4), GrowthFunction("affine", 1, 1))
    )
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


def test_expand_large_fiber_memory_bounded(tmp_path):
    # one fiber of 1000 points of F_53^2 has 999,000 ordered pairs: about
    # 110 MB of arrays when built at once, a few MB when built in blocks
    script = (
        "import contextlib, io, resource, sys\n"
        "from zerosum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['expand', '--input', sys.argv[1], '--seed', '1'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
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
