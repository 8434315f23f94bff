"""Output checks. Each returns a list of problems; an empty list means the output is correct.

The checks read only ``.ranking``, ``.importance``, ``.score`` and the
``*_to_dict`` documents, which are the parts of an explanation that
survive planned internal refactors.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

HIST_TOLERANCE = 1e-9
SHAP_ADDITIVITY_TOLERANCE = 1e-6


def check_ranking(ranking: Sequence[int], d: int) -> list[str]:
    if sorted(int(j) for j in ranking) != list(range(d)):
        return [f"ranking is not a permutation of range({d})"]
    return []


def check_explanation_doc(doc: dict) -> list[str]:
    """Ranks form a permutation of 1..d and every D/R/C/Q lies in [0, 1]."""
    features = doc["features"]
    problems = []
    if sorted(f["rank"] for f in features) != list(range(1, len(features) + 1)):
        problems.append("ranks are not a permutation of 1..d")
    for f in features:
        for key in ("D", "R", "C", "Q"):
            v = f["metrics"][key]
            if not 0.0 <= v <= 1.0:
                problems.append(f"{f['name']} {key}={v!r} outside [0, 1]")
    return problems


def check_histogram_doc(doc: dict) -> list[str]:
    """Every rank-position column sums to 1 within HIST_TOLERANCE."""
    matrix = doc["matrix"]
    problems = []
    for k in range(len(doc["positions"])):
        total = sum(row[k] for row in matrix)
        if abs(total - 1.0) > HIST_TOLERANCE:
            problems.append(f"rank position {k + 1} sums to {total!r}")
    return problems


def check_shap_doc(doc: dict) -> list[str]:
    """KernelSHAP additivity: phi0 + sum(phi) equals the score."""
    gap = abs(doc["phi0"] + sum(doc["phi"]) - doc["score"])
    if gap > SHAP_ADDITIVITY_TOLERANCE:
        return [f"additivity off by {gap!r}"]
    return []


class FirstSeen:
    """Remembers the first bytes seen under each key; later ones must match."""

    def __init__(self) -> None:
        self._digests: dict[str, str] = {}

    def check(self, key: str, blob: bytes) -> list[str]:
        digest = hashlib.sha256(blob).hexdigest()
        first = self._digests.setdefault(key, digest)
        if first != digest:
            return [f"{key} differs from its first iteration"]
        return []
