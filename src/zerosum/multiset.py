"""Finite multisets of points in F_p^d.

Cardinality always counts multiplicities.  Instances are immutable after
construction; all operations return new multisets.  Support order is
lexicographic everywhere, which keeps every downstream search deterministic.

`GroupMultiset(params, entries)` is the one validating door: it sorts,
reduces and checks whatever it is given.  The operations below build their
results canonical by construction and go through `_trusted`, which does
neither; points are mapped as numpy rows of `arrays()`, never one by one.
Being immutable, a multiset keeps what is derived from it alone, built at
its first use: `arrays()`, its value histograms (`histograms()`, which every
thickness scan of it reads) and its affine hull (`hull()`).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Hashable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .group import GroupParams, AffineIso, Vec, affine_hull


# multiplicities are held in int64 arrays (`arrays`), and len() must fit
# an index-sized integer
_CARDINALITY_LIMIT = 2 ** 63


class GroupMultiset:
    __slots__ = ("params", "_entries", "_cardinality", "_arrays", "_hists", "_hull")

    def __init__(self, params: GroupParams, entries: Dict[Vec, int]):
        clean: Dict[Vec, int] = {}
        for elem, mult in sorted(entries.items()):
            if mult < 0:
                raise ValueError(f"negative multiplicity for {elem}")
            if mult == 0:
                continue
            key = params.reduce(elem)
            if key != tuple(elem):
                raise ValueError(f"element {elem} is not a canonical residue vector")
            clean[key] = clean.get(key, 0) + int(mult)
        self.params = params
        self._entries = clean
        self._cardinality = sum(clean.values())
        if self._cardinality >= _CARDINALITY_LIMIT:
            raise ValueError("multiplicities sum to 2^63 or more")
        self._arrays: Optional[tuple] = None
        self._hists: Optional[np.ndarray] = None
        self._hull: Optional[tuple] = None

    @classmethod
    def from_points(cls, params: GroupParams, points: Iterable) -> "GroupMultiset":
        entries: Dict[Vec, int] = {}
        for pt in points:
            key = params.reduce(tuple(pt))
            entries[key] = entries.get(key, 0) + 1
        return cls(params, entries)

    @classmethod
    def empty(cls, params: GroupParams) -> "GroupMultiset":
        return cls._trusted(params, {})

    @classmethod
    def _trusted(
        cls, params: GroupParams, entries: Dict[Vec, int], arrays: Optional[tuple] = None
    ) -> "GroupMultiset":
        """A multiset over entries the caller guarantees canonical: residue
        vectors of params as keys in lexicographic order, positive int
        multiplicities.  `arrays`, when given, must equal what `arrays()`
        would build from them."""
        obj = cls.__new__(cls)
        obj.params = params
        obj._entries = entries
        obj._cardinality = sum(entries.values())
        obj._arrays = arrays
        obj._hists = None
        obj._hull = None
        return obj

    @classmethod
    def _from_arrays(cls, params: GroupParams, pts: np.ndarray, mults: np.ndarray):
        """The multiset of the rows of pts, (n, d) int64 residues in [0, p-1],
        with multiplicities mults: rows sorted lexicographically, repeated rows
        merged."""
        if len(pts) == 0:
            return cls._trusted(params, {})
        order = np.lexsort(pts.T[::-1])  # the last key is the primary one
        pts, mults = pts[order], mults[order]
        new = (pts[1:] != pts[:-1]).any(axis=1)
        if not new.all():
            starts = np.flatnonzero(np.concatenate(([True], new)))
            pts, mults = pts[starts], np.add.reduceat(mults, starts)
        entries = dict(zip(map(tuple, pts.tolist()), mults.tolist()))
        return cls._trusted(params, entries, (pts, mults))

    # -- queries ---------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return self._cardinality

    def __len__(self) -> int:
        return self._cardinality

    def __bool__(self) -> bool:
        return self._cardinality > 0

    def support(self) -> Tuple[Vec, ...]:
        return tuple(self._entries.keys())

    def support_size(self) -> int:
        return len(self._entries)

    def multiplicity(self, x: Vec) -> int:
        return self._entries.get(tuple(x), 0)

    def __contains__(self, x) -> bool:
        return tuple(x) in self._entries

    def items(self) -> Iterator[Tuple[Vec, int]]:
        return iter(self._entries.items())

    def iter_with_multiplicity(self) -> Iterator[Vec]:
        for elem, mult in self._entries.items():
            for _ in range(mult):
                yield elem

    def is_set(self) -> bool:
        return all(m == 1 for m in self._entries.values())

    def arrays(self):
        """(support array (n, d) int64, multiplicity array (n,) int64)."""
        if self._arrays is None:
            if self._entries:
                pts = np.array(list(self._entries.keys()), dtype=np.int64)
                mults = np.array(list(self._entries.values()), dtype=np.int64)
            else:
                pts = np.zeros((0, self.params.d), dtype=np.int64)
                mults = np.zeros((0,), dtype=np.int64)
            self._arrays = (pts, mults)
        return self._arrays

    def histograms(self) -> np.ndarray:
        """Value histograms along every canonical direction of F_p^d
        (`canonical_linear_parts`), laid out [value, direction] in the
        narrowest unsigned dtype that holds |X|: built once, read-only.
        The thickness scans of this multiset over canonical directions all
        read them."""
        if self._hists is None:
            from .thickness import _canonical_directions, _histograms  # thickness imports this module

            self._hists = _histograms(self, _canonical_directions(self.params.p, self.params.d))
        return self._hists

    def hull(self) -> tuple:
        """`affine_hull` of the support, (dimension, basepoint, basis):
        built once."""
        if self._hull is None:
            self._hull = affine_hull(self.support(), self.params.p)
        return self._hull

    def total(self) -> Vec:
        """Sum of all elements with multiplicity."""
        acc = [0] * self.params.d
        for elem, mult in self._entries.items():
            for i, c in enumerate(elem):
                acc[i] += mult * c
        return tuple(a % self.params.p for a in acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMultiset):
            return NotImplemented
        return self.params == other.params and self._entries == other._entries

    def __repr__(self) -> str:
        return (
            f"GroupMultiset(p={self.params.p}, d={self.params.d}, "
            f"|X|={self._cardinality}, support={len(self._entries)})"
        )

    # -- algebra ---------------------------------------------------------

    def _same_params(self, other: "GroupMultiset") -> None:
        if other.params is not self.params and other.params != self.params:
            raise ValueError("multisets over different groups")

    def union(self, other: "GroupMultiset") -> "GroupMultiset":
        """Multiplicities add; a merge of the two sorted supports."""
        self._same_params(other)
        a, b = self._entries, other._entries
        if not b:
            return self
        if not a:
            return other
        merged = {**a, **b}
        for elem in a.keys() & b.keys():
            merged[elem] = a[elem] + b[elem]
        # two sorted runs: the sort is a single merge pass
        entries = {elem: merged[elem] for elem in sorted(merged)}
        return GroupMultiset._trusted(self.params, entries)

    def minus(self, other: "GroupMultiset") -> "GroupMultiset":
        self._same_params(other)
        if not other._entries:
            return self
        entries = dict(self._entries)
        for elem, mult in other._entries.items():
            have = entries.get(elem, 0)
            if have < mult:
                raise ValueError(f"cannot remove {mult} copies of {elem}, have {have}")
            entries[elem] = have - mult
        return GroupMultiset._trusted(
            self.params, {elem: mult for elem, mult in entries.items() if mult}
        )

    def contains_submultiset(self, other: "GroupMultiset") -> bool:
        return all(self.multiplicity(e) >= m for e, m in other.items())

    def select(self, keep) -> "GroupMultiset":
        """The support points where the boolean array keep, aligned with
        `arrays()`, is true, with their full multiplicities."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self._entries),):
            raise ValueError(f"mask of shape {keep.shape} for {len(self._entries)} points")
        if keep.all():
            return self
        pts, mults = self.arrays()
        entries = dict(compress(self._entries.items(), keep.tolist()))
        return GroupMultiset._trusted(self.params, entries, (pts[keep], mults[keep]))

    def split(self, labels: Sequence[Hashable]) -> Dict[Hashable, "GroupMultiset"]:
        """Sub-multisets by label: labels[i] names the piece of the i-th
        support point in `items()` order."""
        if len(labels) != len(self._entries):
            raise ValueError(f"{len(labels)} labels for {len(self._entries)} points")
        pieces: Dict[Hashable, Dict[Vec, int]] = {}
        for (elem, mult), label in zip(self._entries.items(), labels):
            pieces.setdefault(label, {})[elem] = mult
        return {
            label: GroupMultiset._trusted(self.params, entries)
            for label, entries in pieces.items()
        }

    def translate(self, v: Vec) -> "GroupMultiset":
        p, d = self.params.p, self.params.d
        if len(v) != d:
            raise ValueError(f"expected {d} coordinates, got {len(v)}")
        shift = np.array([int(c) % p for c in v], dtype=np.int64)
        pts, mults = self.arrays()
        return GroupMultiset._from_arrays(self.params, (pts + shift) % p, mults)

    def apply_iso(self, psi: AffineIso) -> "GroupMultiset":
        """Image under psi, which need not be invertible: colliding images
        add their multiplicities.  psi's entries are reduced mod p first, so
        any integers are accepted, and int64 products cannot overflow."""
        psi = psi.reduced(self.params.p, self.params.d)
        matrix = np.array(psi.matrix, dtype=np.int64)
        shift = np.array(psi.shift, dtype=np.int64)
        pts, mults = self.arrays()
        img = (pts @ matrix.T + shift) % self.params.p
        return GroupMultiset._from_arrays(self.params, img, mults)


def change_coords(X: GroupMultiset, psi: AffineIso) -> GroupMultiset:
    """Image multiset under an affine isomorphism; multiplicities carry over."""
    psi.validate(X.params.p)
    return X.apply_iso(psi)
