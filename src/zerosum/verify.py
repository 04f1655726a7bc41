"""Re-verification of stored artifacts.

Every check recomputes from the raw serialized data; nothing trusts recorded
"holds" flags.  Results come back as (check name, passed) pairs so callers
can print one line per invariant.
"""

from __future__ import annotations

from typing import List, Tuple

from . import serialize
from .multiset import GroupMultiset
from .pipeline import StageFailure
from .subsums import ZeroSumCertificate

Checks = List[Tuple[str, bool]]


def verify_payload(obj: dict) -> Checks:
    kind = obj.get("kind")
    if kind == "instance":
        X = serialize.instance_from_json(obj)
        return [("parses", True), ("nonempty", len(X) > 0)]
    if kind == "zero_sum_certificate":
        X, cert = serialize.certificate_from_json(obj)
        return [("certificate", cert.verify(X))]
    if kind == "tubular_certificate":
        X, cert = serialize.tubular_from_json(obj)
        ok, frac, _worst = cert.validate(X)
        return [
            ("box_containment_and_thickness", ok),
            ("achieved_at_least_delta", frac >= cert.delta),
        ]
    if kind == "decomposition":
        X, dec = serialize.decomposition_from_json(obj)
        return dec.validate(X)
    if kind == "strong_decomposition":
        X, sdec = serialize.strong_decomposition_from_json(obj)
        return sdec.validate(X)
    if kind == "expansion_cover":
        return serialize.cover_from_json(obj).validate()
    if kind == "pipeline_trace":
        return verify_trace(obj)
    raise ValueError(f"unknown artifact kind {kind!r}")


def _field(value, kind: type, name: str):
    """value, or ValueError naming the field when it is not of `kind`."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ValueError(f"{name} must be {noun}")
    return value


def verify_trace(obj: dict) -> Checks:
    X = serialize.instance_from_json(obj["instance"])
    trace = _field(obj["trace"], dict, "trace")
    checks: Checks = []
    result = _field(trace.get("result", {}), dict, "result")
    for i, stage in enumerate(_field(trace.get("stages", []), list, "stages")):
        stage = _field(stage, dict, f"stages[{i}]")
        for j, ident in enumerate(_field(stage.get("identities", []), list, f"stages[{i}].identities")):
            ident = _field(ident, dict, f"stages[{i}].identities[{j}]")
            checks.append(
                (
                    f"{stage['stage']}:{ident['name']}",
                    ident["lhs"] == ident["rhs"],
                )
            )
        if stage.get("outcome") == "failure":
            ineq = _field(stage["inequality"], dict, f"stages[{i}].inequality")
            lhs, rhs = serialize.parse_frac(ineq["lhs"]), serialize.parse_frac(ineq["rhs"])
            sf = StageFailure(stage["stage"], ineq["name"], lhs, ineq["op"], rhs, "")
            checks.append((f"{stage['stage']}:failure_re_violates", not sf.holds()))
    if result.get("status") == "certificate":
        subset = GroupMultiset(
            X.params,
            {X.params.reduce(e): m for e, m in (tuple(item) for item in result["subset"])},
        )
        cert = ZeroSumCertificate(X.params, subset)
        checks.append(("certificate", cert.verify(X)))
    return checks
