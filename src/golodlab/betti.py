"""Graded Betti tables: dict (homological degree i, internal degree j) to
rank, with the Macaulay-style grid printer (rows indexed by j - i).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class BettiTable:
    entries: dict  # (i, j) -> positive int
    multigraded: Optional[dict] = None  # (i, alpha) -> positive int, when known

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}
        if self.multigraded is not None:
            self.multigraded = {k: v for k, v in self.multigraded.items() if v}

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self):
        return tuple(self.total(i) for i in range(self.proj_dim() + 1))

    def proj_dim(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def regularity(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def support(self):
        return sorted(self.entries)

    def grid_str(self) -> str:
        if not self.entries:
            return "empty Betti table"
        imax = self.proj_dim()
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(imax)), 5)
        out = []
        header = ["%*s" % (width, i) for i in range(imax + 1)]
        out.append("%6s " % "" + " ".join(header))
        totals = ["%*d" % (width, self.total(i)) for i in range(imax + 1)]
        out.append("%6s " % "total:" + " ".join(totals))
        for r in rows:
            cells = []
            for i in range(imax + 1):
                v = self.entries.get((i, i + r), 0)
                cells.append("%*s" % (width, v if v else "."))
            out.append("%5d: " % r + " ".join(cells))
        return "\n".join(out)


def has_linear_resolution(B: BettiTable) -> bool:
    """True when every syzygy step is linear: beta_{i,j} != 0 forces
    j = i + d - 1 for i >= 1, with d the least generator degree.  So mixed
    generator degrees give False, since such a resolution is not linear."""
    d = min((j for (i, j) in B.entries if i == 1), default=None)
    if d is None:
        # zero ideal resolves to nothing past homological degree 0
        return True
    return all(j == i + d - 1 for (i, j) in B.entries if i >= 1)
