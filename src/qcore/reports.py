"""Verification reports and their two serializations (text line, dict)."""

from __future__ import annotations

from collections import namedtuple

EXACT_MATCH = "exact-match"
MISMATCH = "mismatch"
SKIPPED = "skipped"


class VerificationReport(namedtuple(
        "VerificationReport",
        "id kind order status first_bad_index lhs_value rhs_value detail elapsed",
        defaults=(None, None, None, "", 0.0))):
    """Outcome of one verification run.

    A mismatch always carries the smallest offending index together with
    the two values seen there; a skip, a check that covered nothing,
    carries its reason in ``detail``.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """No mismatch: an exact match, or a skip."""
        return self.status != MISMATCH

    def to_line(self, include_elapsed: bool = False) -> str:
        parts = [self.id, self.status, f"N={self.order}"]
        if self.status == MISMATCH and self.first_bad_index is not None:
            parts.append(
                f"index={self.first_bad_index} lhs={self.lhs_value} rhs={self.rhs_value}"
            )
        if self.detail:
            parts.append(f"[{self.detail}]")
        if include_elapsed:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        return " ".join(parts)

    def to_dict(self, include_elapsed: bool = False) -> dict:
        d = {
            "id": self.id,
            "kind": self.kind,
            "order": self.order,
            "status": self.status,
        }
        if self.first_bad_index is not None:
            d["first_bad_index"] = self.first_bad_index
            d["lhs_value"] = str(self.lhs_value)
            d["rhs_value"] = str(self.rhs_value)
        if self.detail:
            d["detail"] = self.detail
        if include_elapsed:
            d["elapsed"] = self.elapsed
        return d
