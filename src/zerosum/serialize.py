"""JSON encoding of every artifact the tools exchange.

Residues are serialized in [0, p-1]; exact rationals as "num/den" strings;
multisets as entry lists.  Each top-level artifact carries a "kind" so the
verifier can dispatch, and embeds whatever inputs are needed to re-check it
from the file alone.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional

from .expansion import CoverPair, ExpansionCover, RelationVector
from .group import AffineIso, GroupParams, LinearFunctional
from .multiset import _CARDINALITY_LIMIT, GroupMultiset
from .subsums import ZeroSumCertificate
from .thickness import (
    Decomposition,
    GrowthFunction,
    StrongDecomposition,
    SubsetCertificate,
    TubularCertificate,
)

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(s) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


def params_to_json(params: GroupParams) -> dict:
    return {"p": params.p, "d": params.d}


def params_from_json(obj) -> GroupParams:
    return GroupParams(int(obj["p"]), int(obj["d"]))


def multiset_to_json(X: GroupMultiset) -> list:
    return [{"element": list(e), "multiplicity": m} for e, m in X.items()]


def multiset_from_json(params: GroupParams, obj) -> GroupMultiset:
    if isinstance(obj, dict):
        obj = obj["entries"]
    entries = {}
    for item in obj:
        if isinstance(item, dict):
            elem = params.reduce(item["element"])
            entries[elem] = entries.get(elem, 0) + int(item.get("multiplicity", 1))
        else:
            elem = params.reduce(item)
            entries[elem] = entries.get(elem, 0) + 1
    return GroupMultiset(params, entries)


def instance_to_json(X: GroupMultiset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        **params_to_json(X.params),
        "entries": multiset_to_json(X),
    }


def instance_from_json(obj) -> GroupMultiset:
    params = params_from_json(obj)
    return multiset_from_json(params, obj.get("entries", obj.get("elements", [])))


def functional_to_json(f: LinearFunctional) -> dict:
    return {"a0": f.a0, "linear": list(f.linear)}


def functional_from_json(obj) -> LinearFunctional:
    return LinearFunctional(int(obj["a0"]), tuple(int(x) for x in obj["linear"]))


def iso_to_json(psi: AffineIso) -> dict:
    return {"matrix": [list(r) for r in psi.matrix], "shift": list(psi.shift)}


def iso_from_json(obj) -> AffineIso:
    return AffineIso(
        tuple(tuple(int(x) for x in row) for row in obj["matrix"]),
        tuple(int(x) for x in obj["shift"]),
    )


def certificate_to_json(X: GroupMultiset, cert: ZeroSumCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "zero_sum_certificate",
        **params_to_json(X.params),
        "instance": multiset_to_json(X),
        "subset": multiset_to_json(cert.subset),
        "claimed_sum": [0] * X.params.d,
    }


def certificate_from_json(obj):
    params = params_from_json(obj)
    X = multiset_from_json(params, obj["instance"])
    cert = ZeroSumCertificate(params, multiset_from_json(params, obj["subset"]))
    return X, cert


def _tubular_cert_to_json(cert: TubularCertificate) -> dict:
    """A tubular certificate's fields, as `_tubular_cert_from_json` reads
    them."""
    return {
        "l": cert.l,
        "K": cert.K,
        "K_prime": cert.K_prime,
        "delta": frac_str(cert.delta),
        "psi": iso_to_json(cert.psi),
        "functionals": [functional_to_json(f) for f in cert.functionals],
    }


def tubular_to_json(X: GroupMultiset, cert: TubularCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "tubular_certificate",
        **params_to_json(cert.params),
        "set": multiset_to_json(X),
        **_tubular_cert_to_json(cert),
    }


def _natural(obj, name: str) -> int:
    """obj[name] as a radius or an exponent; ValueError naming the field
    when negative."""
    value = int(obj[name])
    if value < 0:
        raise ValueError(f"{name} = {value} is negative")
    return value


def _tubular_cert_from_json(params: GroupParams, obj) -> TubularCertificate:
    """A tubular certificate's fields; ValueError unless 0 <= l <= d, K and
    K_prime are nonnegative, and psi is a d x d matrix with a length-d shift.
    Invertibility is left to `TubularCertificate.validate`, which fails a
    singular psi."""
    l = int(obj["l"])
    if not 0 <= l <= params.d:
        raise ValueError(f"l = {l} outside [0, {params.d}]")
    psi = iso_from_json(obj["psi"])
    psi.reduced(params.p, params.d)  # the shape check
    return TubularCertificate(
        params,
        l,
        psi,
        _natural(obj, "K"),
        _natural(obj, "K_prime"),
        parse_frac(obj["delta"]),
        tuple(functional_from_json(f) for f in obj["functionals"]),
    )


def tubular_from_json(obj):
    params = params_from_json(obj)
    X = multiset_from_json(params, obj["set"])
    return X, _tubular_cert_from_json(params, obj)


def _pieces_from_json(params: GroupParams, obj):
    """(x0, parts) of a decomposition artifact.  Each multiset bounds its
    own cardinality; unions of them do not (`GroupMultiset.union`), so
    ValueError unless all of them together hold under 2^63 points."""
    x0 = multiset_from_json(params, obj["x0"])
    parts = tuple(multiset_from_json(params, part) for part in obj["parts"])
    if len(x0) + sum(len(part) for part in parts) >= _CARDINALITY_LIMIT:
        raise ValueError("x0 and the parts hold 2^63 or more points")
    return x0, parts


def decomposition_to_json(X: GroupMultiset, dec: Decomposition) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "decomposition",
        **params_to_json(dec.params),
        "input": multiset_to_json(X),
        "x0": multiset_to_json(dec.x0),
        "parts": [multiset_to_json(part) for part in dec.parts],
        "l": dec.l,
        "K": dec.K,
        "K0": dec.K0,
        "delta": frac_str(dec.delta),
        "mu": frac_str(dec.mu),
        "epsilon": frac_str(dec.epsilon),
        "growth": dec.growth.describe(),
        "n_cap": dec.n_cap,
    }


def decomposition_from_json(obj):
    params = params_from_json(obj)
    X = multiset_from_json(params, obj["input"])
    x0, parts = _pieces_from_json(params, obj)
    dec = Decomposition(
        params=params,
        input_size=len(X),
        x0=x0,
        parts=parts,
        l=_natural(obj, "l"),
        K=_natural(obj, "K"),
        K0=_natural(obj, "K0"),
        delta=parse_frac(obj["delta"]),
        mu=parse_frac(obj["mu"]),
        epsilon=parse_frac(obj["epsilon"]),
        growth=GrowthFunction.parse(obj["growth"]),
        n_cap=int(obj["n_cap"]),
    )
    return X, dec


def strong_decomposition_to_json(X: GroupMultiset, sdec: StrongDecomposition) -> dict:
    certs = []
    for subset in sorted(sdec.subset_certs):
        sc = sdec.subset_certs[subset]
        certs.append(
            {
                "subset": list(subset),
                "delta_schedule": frac_str(sc.delta_schedule),
                "achieved": frac_str(sc.achieved),
                **_tubular_cert_to_json(sc.cert),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "strong_decomposition",
        **params_to_json(sdec.params),
        "input": multiset_to_json(X),
        "x0": multiset_to_json(sdec.x0),
        "parts": [multiset_to_json(part) for part in sdec.parts],
        "l": sdec.l,
        "K": sdec.K,
        "K0": sdec.K0,
        "delta": frac_str(sdec.delta),
        "delta0": frac_str(sdec.delta0),
        "mu0": frac_str(sdec.mu0),
        "mu": frac_str(sdec.mu),
        "epsilon": frac_str(sdec.epsilon),
        "growth": sdec.growth.describe(),
        "removed_in_sweeps": sdec.removed_in_sweeps,
        "subset_certs": certs,
    }


def strong_decomposition_from_json(obj):
    params = params_from_json(obj)
    X = multiset_from_json(params, obj["input"])
    certs: Dict[tuple, SubsetCertificate] = {}
    for item in obj["subset_certs"]:
        subset = tuple(int(i) for i in item["subset"])
        cert = _tubular_cert_from_json(params, item)
        certs[subset] = SubsetCertificate(
            subset, cert, parse_frac(item["delta_schedule"]), parse_frac(item["achieved"])
        )
    x0, parts = _pieces_from_json(params, obj)
    sdec = StrongDecomposition(
        params=params,
        input_size=len(X),
        x0=x0,
        parts=parts,
        l=_natural(obj, "l"),
        K=_natural(obj, "K"),
        K0=_natural(obj, "K0"),
        delta=parse_frac(obj["delta"]),
        delta0=parse_frac(obj["delta0"]),
        mu0=parse_frac(obj["mu0"]),
        mu=parse_frac(obj["mu"]),
        epsilon=parse_frac(obj["epsilon"]),
        growth=GrowthFunction.parse(obj["growth"]),
        subset_certs=certs,
        removed_in_sweeps=int(obj["removed_in_sweeps"]),
    )
    return X, sdec


def relation_to_json(rel: Optional[RelationVector]):
    if rel is None:
        return None
    return [{"label": list(lab), "coefficient": c} for lab, c in rel.entries]


def relation_from_json(obj) -> Optional[RelationVector]:
    if obj is None:
        return None
    return RelationVector(
        tuple((tuple(int(x) for x in item["label"]), int(item["coefficient"])) for item in obj)
    )


def cover_to_json(cover: ExpansionCover) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "expansion_cover",
        **params_to_json(cover.params),
        "l": cover.l,
        "fibers": [
            {"label": list(lab), "entries": multiset_to_json(cover.fibers[lab])}
            for lab in sorted(cover.fibers)
        ],
        "u0": list(cover.u0),
        "k": cover.k,
        "base": list(cover.base),
        "pairs": [
            {
                "j1": [list(x) for x in pair.j1],
                "j2": [list(x) for x in pair.j2],
                "sigma": list(pair.sigma),
                "source": pair.source,
                "relation": relation_to_json(pair.relation),
            }
            for pair in cover.pairs
        ],
        "first_step": list(cover.first_step),
    }


def fibers_from_json(params: GroupParams, obj) -> Dict[tuple, GroupMultiset]:
    """{label: fiber} from the "fibers" list of a cover or a fibers file."""
    return {
        tuple(int(x) for x in item["label"]): multiset_from_json(params, item["entries"])
        for item in obj["fibers"]
    }


def cover_from_json(obj) -> ExpansionCover:
    """An expansion cover's fields; ValueError unless 0 <= l <= d and each
    pair's stored source is the one its relation gives."""
    params = params_from_json(obj)
    l = int(obj["l"])
    if not 0 <= l <= params.d:
        raise ValueError(f"l = {l} outside [0, {params.d}]")
    fibers = fibers_from_json(params, obj)
    pairs = tuple(
        CoverPair(
            tuple(tuple(int(c) for c in x) for x in item["j1"]),
            tuple(tuple(int(c) for c in x) for x in item["j2"]),
            tuple(int(c) for c in item["sigma"]),
            relation_from_json(item.get("relation")),
        )
        for item in obj["pairs"]
    )
    for item, pair in zip(obj["pairs"], pairs):
        if item["source"] != pair.source:
            raise ValueError(f"pair source {item['source']!r} disagrees with its relation")
    return ExpansionCover(
        params,
        l,
        fibers,
        pairs,
        tuple(int(c) for c in obj["base"]),
        int(obj["k"]),
        tuple(int(x) for x in obj["first_step"]),
    )


def trace_to_json(X: GroupMultiset, trace: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pipeline_trace",
        "instance": instance_to_json(X),
        "trace": trace,
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
