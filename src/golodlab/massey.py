"""Massey operations on Koszul homology.

MasseyTable / build_trivial_table / build_rainbow_table: a trivial Massey
operation as a table of values mu(tuple), every defining equation

    d mu(h_1..h_p) = sum_{i=1}^{p-1} bar(mu(h_1..h_i)) ^ mu(h_{i+1}..h_p)

machine-verified exactly, with bar(a) = (-1)^(|a|+1) a.

Tables are sparse: only nonzero values are stored, and a missing tuple has
value 0.  Both builders fill their table in one loop, `_fill`, which visits
the tuples a builder hands it, length by length, and solves each value as a
boundary preimage of the equation's right-hand side, strand by strand.  The
general builder hands it the *candidates*: the tuples with a cut that has
stored values on both sides.  Any other tuple has value 0 and a zero side
at every cut, so its equation reads 0 = 0 identically.  There the first
unsolvable equation is a nonzero product or Massey product.  The rainbow
builder hands it the valid tuples of a rainbow monomial ideal and a closed
form for the pairs; there an unsolvable equation is an inconsistency.  A
tuple of labels is valid when the labels' variable bitmasks are pairwise
disjoint and their union is the mask of a complete label.

MasseyTable.verify recounts the tuples a table covers at each length, kept
in `counts`, and re-checks equations: in a rainbow table those of every
valid tuple, regrown from the keys, in a general table those of the stored
and the candidate tuples.

The loop is bounded by TUPLE_CAP, the number of tuples it visits over all
lengths: the candidates for the general builder, the valid tuples for the
rainbow one.  A build that runs out during length p keeps the lengths it
finished: it returns its table through length p - 1, verified and marked
`cut`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import CapExceededError, InconsistencyError, InputError
from .koszul import KoszulElement

# tuples a table builder may visit before it cuts the table short
TUPLE_CAP = 200_000
# candidate labels complete_labels may enumerate before CapExceededError
LABEL_CAP = 100_000

# ---------------------------------------------------------------------------
# eta cycles and rainbow labels


def eta(quot, label, drop: int) -> KoszulElement:
    """Left-to-right wedge of the color blocks of `label`, with the Koszul
    differential applied to the last `drop` blocks.

    label: tuple of per-color blocks, each an ascending tuple of ring
    variable indices.  drop = n-1 on a complete label gives the
    homology-basis cycle (its differential expands into transversal
    generators, which die in the quotient); drop = n-2 builds the first
    factor of a pair value.
    """
    n = len(label)
    if drop < 0 or drop > n:
        raise InputError("cannot differentiate %d of %d blocks" % (drop, n))
    acc = KoszulElement.wedge_monomial(quot, ())
    for pos, block in enumerate(label):
        if not block:
            raise InputError("empty color block in label %r" % (label,))
        e = KoszulElement.wedge_monomial(quot, block)
        if pos >= n - drop:
            e = e.differential()
        acc = acc.wedge(e)
    return acc


def is_complete_label(quot, label, gens) -> bool:
    """Every transversal of the label is in `gens`, the minimal generators
    of the ideal."""
    n = quot.ring.nvars
    for choice in itertools.product(*label):
        m = [0] * n
        for v in choice:
            m[v] += 1
        if tuple(m) not in gens:
            return False
    return True


def complete_labels(quot, structure) -> list:
    """All labels (one nonempty block per color) whose transversals all lie
    in G(I).  These index the Koszul homology basis for rainbow ideals with
    linear resolution."""
    classes = [tuple(c) for c in structure.classes]
    total = 1
    for c in classes:
        total *= 2 ** len(c) - 1
        if total > LABEL_CAP:
            raise CapExceededError(
                "rainbow label search space %d exceeds cap %d" % (total, LABEL_CAP)
            )
    gens = set(quot.gb.lts)
    out = []
    blocks_per_color = [
        [
            tuple(sorted(b))
            for r in range(1, len(c) + 1)
            for b in itertools.combinations(c, r)
        ]
        for c in classes
    ]
    for label in itertools.product(*blocks_per_color):
        if is_complete_label(quot, label, gens):
            out.append(label)
    out.sort(key=lambda lab: (sum(len(b) for b in lab), lab))
    return out


def label_class(quot, label) -> KoszulElement:
    """Basis cycle of a complete label: keep the first color block, apply
    the differential to the remaining n-1.  Homological degree |A|-(n-1),
    matching the linear-strand Betti numbers."""
    return eta(quot, label, len(label) - 1)


def valid_tuples(labels, shorter) -> list:
    """The valid tuples one label longer than the valid tuples `shorter`,
    in the order of `shorter`, then of `labels`, which must be every
    complete label.

    The color classes partition the variables, so a label is fixed by its
    variable set, kept as a bitmask.  The union of pairwise-disjoint labels
    has one nonempty block per color, so it is complete exactly when its
    mask is the mask of a complete label.  Given all valid (p-1)-tuples this
    is all valid p-tuples: every sub-tuple of a valid tuple is valid, since
    its merged blocks are nonempty subsets of the full merge's blocks, so
    its transversals are among the full merge's."""
    masks = [(lab, sum(1 << v for block in lab for v in block)) for lab in labels]
    mask_of = dict(masks)
    complete = set(mask_of.values())
    out = []
    for lam in shorter:
        used = 0
        for lab in lam:
            used |= mask_of[lab]
        out.extend(
            lam + (lab,)
            for lab, mask in masks
            if not used & mask and (used | mask) in complete
        )
    return out


def rainbow_pair_value(quot, A, B) -> KoszulElement:
    """Closed-form value for a valid pair: sign * eta_{drop n-2}(A) ^
    eta_{drop n-1}(B).  The sign (-1)^(n + |A| - |first block of A|) was
    fixed by exact machine verification of the defining equation across
    full-product and Ferrers-shaped fixtures; see the test suite."""
    n = len(A)
    first = eta(quot, A, n - 2)
    if (n + sum(len(b) for b in A[1:])) % 2 == 1:
        first = first.neg()
    return first.wedge(eta(quot, B, n - 1))


# ---------------------------------------------------------------------------
# the defining equation


def equation_rhs(values: dict, lam: tuple) -> KoszulElement:
    """sum over proper splits of bar(mu(prefix)) ^ mu(suffix); a tuple
    missing from `values` has value 0, but the first key's singleton must
    be there."""
    first = values[lam[:1]]
    acc = None
    for cut in range(1, len(lam)):
        left = values.get(lam[:cut])
        right = values.get(lam[cut:])
        if left is None or right is None or left.is_zero() or right.is_zero():
            continue
        term = left.signed().wedge(right)  # bar(left) ^ right
        acc = term if acc is None else acc + term
    if acc is None:
        acc = KoszulElement.zero(first.quot)
    return acc


def verify_equation(values: dict, lam: tuple) -> bool:
    """The defining equation of a tuple of length >= 2, a missing value
    read as 0."""
    rhs = equation_rhs(values, lam)
    value = values.get(lam)
    if value is None:
        return rhs.is_zero()
    return (value.differential() - rhs).is_zero()


def candidate_tuples(stored, p: int) -> list:
    """Sorted tuples of length p with a cut where both the prefix and the
    suffix are among the `stored` tuples."""
    by_len = {}
    for lam in stored:
        by_len.setdefault(len(lam), []).append(lam)
    return sorted({
        a + b
        for cut in range(1, p)
        for a in by_len.get(cut, ())
        for b in by_len.get(p - cut, ())
    })


# ---------------------------------------------------------------------------
# Massey tables


@dataclass
class MasseyTable:
    quot: object  # QuotientRing
    mode: str  # "rainbow-valid-tuples" | "all-tuples"
    basis: list  # HomologyClass, parallel to keys
    keys: list  # hashable key per basis class (label tuple or int)
    values: dict  # tuple of keys -> nonzero KoszulElement; missing means 0
    p_max: int
    # length -> number of tuples the table covers (zero counts omitted)
    counts: dict = field(default_factory=dict)
    verified: bool = False
    # tuples whose value was solved as a boundary preimage; kept for reporting
    findings: list = field(default_factory=list)
    # the build ran out of TUPLE_CAP during length p_max + 1
    cut: bool = False

    def through(self, top: int) -> "MasseyTable":
        """The tuples of length at most `top`, marked cut: what a build
        that ran out during length top + 1 finished."""
        return replace(
            self,
            p_max=top,
            cut=True,
            values={lam: v for lam, v in self.values.items() if len(lam) <= top},
            counts={p: c for p, c in self.counts.items() if p <= top},
            findings=[lam for lam in self.findings if len(lam) <= top],
        )

    def verify(self) -> "MasseyTable":
        """Exact re-verification of the table's defining equations.

        The counts must be those of every tuple through p_max (all-tuples)
        or of every valid tuple (rainbow), recounted here.  Every basis key
        needs a singleton value, a cycle representing its class.

        In rainbow mode every key must be a complete label of the ideal's
        minimal generators; the valid tuples of each length are then
        regrown from the keys by their masks (`valid_tuples`), a stored
        tuple outside its regrown length (past p_max included) is an
        error, and every valid tuple's equation is re-checked.  In
        all-tuples mode the stored tuples and the candidates (a cut with
        stored values on both sides) are re-checked; any other tuple has
        value 0 and a zero side at every cut, so its equation is 0 = 0.
        """
        keys = set(self.keys)
        size = len(self.keys)
        levels = None
        if self.mode == "rainbow-valid-tuples":
            gens = set(self.quot.gb.lts)
            for k in self.keys:
                if not is_complete_label(self.quot, k, gens):
                    raise InconsistencyError("basis key %r is not complete" % (k,))
            levels = {1: [(k,) for k in self.keys]}
            for p in range(2, self.p_max + 1):
                levels[p] = valid_tuples(self.keys, levels[p - 1])
            counts = {p: len(level) for p, level in levels.items() if level}
        else:
            counts = {p: size ** p for p in range(1, self.p_max + 1) if size}
        if self.counts != counts:
            raise InconsistencyError(
                "tuple counts %r do not match the table's %r" % (self.counts, counts)
            )
        for lam in self.values:
            for k in lam:
                if k not in keys:
                    raise InconsistencyError("table key %r missing from basis" % (k,))
        for k, h in zip(self.keys, self.basis):
            v = self.values.get((k,))
            if v is None:
                raise InconsistencyError("table has no value for basis key %r" % (k,))
            if not v.is_cycle():
                raise InconsistencyError("mu(%r) is not a cycle" % ((k,),))
            if (v - h.rep).terms:
                raise InconsistencyError(
                    "mu(%r) does not represent its basis class" % ((k,),)
                )
        top = max([self.p_max] + [len(lam) for lam in self.values])
        for p in range(2, top + 1):
            stored = {lam for lam in self.values if len(lam) == p}
            if levels is None:
                checked = sorted(stored.union(candidate_tuples(self.values, p)))
            else:
                checked = levels.get(p, [])
                invalid = stored.difference(checked)
                if invalid:
                    raise InconsistencyError(
                        "stored tuple %r is not valid" % (min(invalid),)
                    )
            for lam in checked:
                if not verify_equation(self.values, lam):
                    raise InconsistencyError(
                        "defining equation fails for tuple %r" % (lam,)
                    )
        self.verified = True
        return self


# ---------------------------------------------------------------------------
# the fill loop of both builders (a definitive scan for the general one by
# the single-element lemma: once all shorter products are verified zero,
# each next solve either succeeds or exhibits a nonzero Massey product)


def _fill(table: MasseyTable, tuples, pair_value=None):
    """Fill `table` through its p_max and verify it: (table, None), or
    (None, (tuple, right-hand side)) at the first non-boundary right-hand side.

    Length by length it visits the tuples `tuples(p)` returns.  A tuple in
    degrees above the top wedge degree has value 0; a pair gets
    `pair_value(quot, a, b)` when that is given; any other tuple gets the
    free-coordinates-zero boundary preimage of its right-hand side and is
    recorded in `findings`.  TUPLE_CAP counts the tuples visited, over all
    lengths; when it runs out during length p the table through length
    p - 1 is returned, marked cut.
    """
    quot, values = table.quot, table.values
    kz = quot.koszul()
    n = quot.ring.nvars
    deg = {k: h.hom_degree for k, h in zip(table.keys, table.basis)}
    visited = 0
    for p in range(2, table.p_max + 1):
        for lam in tuples(p):
            visited += 1
            if visited > TUPLE_CAP:
                return table.through(p - 1).verify(), None
            if sum(deg[k] for k in lam) + p - 2 > n:
                # the value and every split term live above the top wedge
                # degree, so the equation is 0 = 0 with value 0
                continue
            if p == 2 and pair_value is not None:
                value = pair_value(quot, *lam)
                if not value.is_zero():
                    values[lam] = value
                continue
            rhs = equation_rhs(values, lam)
            if rhs.is_zero():
                continue
            if not rhs.is_cycle():
                raise InconsistencyError("trivial-Massey RHS is not a cycle")
            u = kz.boundary_preimage(rhs)
            if u is None:
                return None, (lam, rhs)
            values[lam] = u
            table.findings.append(lam)
    return table.verify(), None


# ---------------------------------------------------------------------------
# rainbow construction


def build_rainbow_table(quot, structure, p_max: int = 4) -> MasseyTable:
    """Trivial Massey operation on the valid tuples of a rainbow monomial
    ideal (labels pairwise variable-disjoint, merged label complete).

    The fill loop visits the valid tuples of each length, grown from the
    shorter ones by `valid_tuples` and counted in `counts`.  Pairs get the
    closed form rainbow_pair_value.  Longer tuples are solved: no wedge of
    eta cycles fits them (for three disjoint singleton labels of a full
    product the required chain is one term of an eta expansion).  Their
    right-hand side is always a boundary, so an unsolvable tuple raises an
    inconsistency.
    """
    n = len(structure.classes)
    labels = complete_labels(quot, structure)
    kz = quot.koszul()
    basis = [kz.class_of(label_class(quot, lab)) for lab in labels]
    if n < 2 and p_max >= 2 and labels:
        # a single color class means I is generated by variables; pair
        # values need two blocks in each label, so no tuples exist
        raise InputError("rainbow Massey tuples need at least two colors")
    table = MasseyTable(
        quot=quot,
        mode="rainbow-valid-tuples",
        basis=basis,
        keys=list(labels),
        values={(lab,): h.rep for lab, h in zip(labels, basis)},
        p_max=p_max,
        counts={1: len(labels)} if labels else {},
    )
    level = [(lab,) for lab in labels]

    def grow(p):
        nonlocal level
        level = valid_tuples(labels, level)
        if level:
            table.counts[p] = len(level)
        return level

    table, unsolved = _fill(table, grow, rainbow_pair_value)
    if unsolved is not None:
        raise InconsistencyError(
            "defining equation for %r has no solution; its "
            "right-hand side is not a boundary" % (unsolved[0],)
        )
    return table


# ---------------------------------------------------------------------------
# general construction


@dataclass
class TrivialMasseyOutcome:
    table: Optional[MasseyTable]
    witness: Optional[dict] = None  # set when a nonzero (Massey) product appears


def build_trivial_table(quot, p_max: int = 4) -> TrivialMasseyOutcome:
    """Attempt a trivial Massey operation on the full homology basis, all
    tuples up to length p_max.  The fill loop visits the candidates of each
    length in sorted order (at length 2, every pair).  The first unsolvable
    tuple is a nonzero Massey product (a NotGolod witness), at p=2 a nonzero
    homology product; one found before the cap runs out is returned.
    """
    basis = quot.koszul().homology_basis()
    k = len(basis)
    values = {(i,): h.rep for i, h in enumerate(basis)}
    table = MasseyTable(
        quot=quot,
        mode="all-tuples",
        basis=basis,
        keys=list(range(k)),
        values=values,
        p_max=p_max,
        counts={p: k ** p for p in range(1, p_max + 1) if k},
    )
    table, unsolved = _fill(table, lambda p: candidate_tuples(values, p))
    if unsolved is None:
        return TrivialMasseyOutcome(table=table)
    lam, rhs = unsolved
    return TrivialMasseyOutcome(
        table=None,
        witness={
            "tuple": lam,
            "length": len(lam),
            "classes": [basis[i] for i in lam],
            "product": rhs,
            "kind": "product" if len(lam) == 2 else "massey",
        },
    )
