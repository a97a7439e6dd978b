"""Massey operations on Koszul homology.

MasseyTable / build_trivial_table / build_rainbow_table: a trivial Massey
operation as a table of values mu(tuple), every defining equation

    d mu(h_1..h_p) = sum_{i=1}^{p-1} bar(mu(h_1..h_i)) ^ mu(h_{i+1}..h_p)

machine-verified exactly, with bar(a) = (-1)^(|a|+1) a.  The rainbow
builder stores closed-form values for pairs of variable-disjoint labels
whose merged label is complete, solves longer tuples strand by strand, and
records which tuples needed solving; the general builder solves for every
value, and its first unsolvable equation is a nonzero product or Massey
product.

Tables are sparse: only nonzero values are stored, and a missing tuple has
value 0.  A tuple is a *candidate* when some cut has stored values on both
sides.  Any other tuple has value 0 and a zero side at every cut, so its
defining equation reads 0 = 0 identically; the builders solve, and
MasseyTable.verify re-checks, only the stored and the candidate tuples.
The number of tuples a table covers at each length is kept in `counts`.

Both builders are bounded by TUPLE_CAP, the number of tuples they visit
over all lengths: the candidates for the general builder, the valid
tuples for the rainbow one.  A build that runs out during length p keeps
the lengths it finished: it returns its table through length p - 1,
verified and marked `cut`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import CapExceededError, InconsistencyError, InputError
from .koszul import HomologyClass, KoszulComplex, KoszulElement

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


def label_transversals(label):
    return itertools.product(*label)


def is_complete_label(quot, label) -> bool:
    """Every transversal of the label is a minimal generator of the ideal."""
    gens = set(quot.gb.lts)
    n = quot.ring.nvars
    for choice in label_transversals(label):
        m = [0] * n
        for v in choice:
            m[v] += 1
        if tuple(m) not in gens:
            return False
    return True


def merge_labels(labels):
    n = len(labels[0])
    return tuple(
        tuple(sorted(set().union(*(set(lab[i]) for lab in labels))))
        for i in range(n)
    )


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
        if is_complete_label(quot, label):
            out.append(label)
    out.sort(key=lambda lab: (sum(len(b) for b in lab), lab))
    return out


def label_class(quot, label) -> KoszulElement:
    """Basis cycle of a complete label: keep the first color block, apply
    the differential to the remaining n-1.  Homological degree |A|-(n-1),
    matching the linear-strand Betti numbers."""
    return eta(quot, label, len(label) - 1)


def tuples_share_variables(lams) -> bool:
    seen = set()
    for lab in lams:
        for block in lab:
            for v in block:
                if v in seen:
                    return True
                seen.add(v)
    return False


def is_valid_tuple(quot, lam) -> bool:
    """A tuple of labels is valid when the product of their monomials is a
    squarefree monomial that itself has a complete label: the labels are
    pairwise variable-disjoint and the blockwise union is complete."""
    if tuples_share_variables(lam):
        return False
    return is_complete_label(quot, merge_labels(list(lam)))


def valid_tuples(quot, labels, p: int):
    """The valid length-p tuples of labels, in itertools.product order."""
    for lam in itertools.product(labels, repeat=p):
        if is_valid_tuple(quot, lam):
            yield lam


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
# bar involution and the shared defining-equation right-hand side


def bar(a: KoszulElement) -> KoszulElement:
    return a.signed()


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
        term = bar(left).wedge(right)
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
# homology products


def homology_product(kz: KoszulComplex, h1, h2) -> Optional[KoszulElement]:
    """Class of the wedge of two homology classes; None when zero."""
    r1 = h1.rep if isinstance(h1, HomologyClass) else h1
    r2 = h2.rep if isinstance(h2, HomologyClass) else h2
    w = r1.wedge(r2)
    if w.is_zero() or kz.is_boundary(w):
        return None
    return w


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
    # tuples whose value was solved as a boundary preimage (in rainbow mode:
    # for want of a closed form); kept for reporting
    findings: list = field(default_factory=list)
    # the build ran out of TUPLE_CAP during length p_max + 1
    cut: bool = False

    def key_index(self) -> dict:
        return {k: i for i, k in enumerate(self.keys)}

    def through(self, top: int) -> "MasseyTable":
        """The tuples of length at most `top`, marked cut: what a build
        that ran out during length top + 1 finished."""
        return replace(
            self,
            p_max=top,
            cut=True,
            values={lam: v for lam, v in self.values.items() if len(lam) <= top},
            counts={p: c for p, c in self.counts.items() if p <= top},
            findings=[f for f in self.findings if len(f["tuple"]) <= top],
        )

    def verify(self) -> "MasseyTable":
        """Exact re-verification of the table's defining equations.

        The counts must be those of every tuple through p_max (all-tuples)
        or of every valid tuple (rainbow), recounted here.  Every basis key
        needs a singleton value, a cycle representing its class.
        At each length the stored tuples and the candidates (a cut with
        stored values on both sides) are re-checked exactly; in rainbow mode
        only valid tuples are claimed, so an invalid candidate is skipped
        and an invalid stored tuple is an error.  Any other tuple has value
        0 and a zero side at every cut, so its equation is 0 = 0.
        """
        idx = self.key_index()
        rainbow = self.mode == "rainbow-valid-tuples"
        size = len(self.keys)
        if rainbow:
            counts = {1: size} if size else {}
            for p in range(2, self.p_max + 1):
                c = sum(1 for _ in valid_tuples(self.quot, self.keys, p))
                if c:
                    counts[p] = c
        else:
            counts = {p: size ** p for p in range(1, self.p_max + 1) if size}
        if self.counts != counts:
            raise InconsistencyError(
                "tuple counts %r do not match the table's %r" % (self.counts, counts)
            )
        for lam in self.values:
            for k in lam:
                if k not in idx:
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
            for lam in sorted(stored.union(candidate_tuples(self.values, p))):
                if rainbow and not is_valid_tuple(self.quot, lam):
                    if lam in stored:
                        raise InconsistencyError(
                            "stored tuple %r is not valid" % (lam,)
                        )
                    continue
                if not verify_equation(self.values, lam):
                    raise InconsistencyError(
                        "defining equation fails for tuple %r" % (lam,)
                    )
        self.verified = True
        return self


# ---------------------------------------------------------------------------
# rainbow construction


def build_rainbow_table(quot, structure, p_max: int = 4) -> MasseyTable:
    """Trivial Massey operation on the valid tuples of a rainbow monomial
    ideal (labels pairwise variable-disjoint, merged label complete).

    Pair values use the closed form rainbow_pair_value.  For tuples of
    length >= 3 no wedge of eta cycles satisfies the defining equation
    (already for three disjoint singleton labels of a full product the
    required chain is a single term of an eta expansion, not the whole
    expansion), so those values are solved as boundary preimages of the
    right-hand side and the tuples recorded in `findings`.  Every stored
    equation is re-verified exactly; an unsolvable tuple raises an
    inconsistency, since for these ideals the right-hand side of the
    defining equation is always a boundary.
    """
    n = len(structure.classes)
    labels = complete_labels(quot, structure)
    kz = quot.koszul()
    basis = [kz.class_of(label_class(quot, lab)) for lab in labels]
    values = {(lab,): h.rep for lab, h in zip(labels, basis)}
    if n < 2 and p_max >= 2 and labels:
        # a single color class means I is generated by variables; pair
        # values need two blocks in each label, so no tuples exist
        raise InputError("rainbow Massey tuples need at least two colors")
    table = MasseyTable(
        quot=quot,
        mode="rainbow-valid-tuples",
        basis=basis,
        keys=list(labels),
        values=values,
        p_max=p_max,
        counts={1: len(labels)} if labels else {},
    )
    count = 0
    for p in range(2, p_max + 1):
        for lam in valid_tuples(quot, labels, p):
            count += 1
            if count > TUPLE_CAP:
                return table.through(p - 1).verify()
            table.counts[p] = table.counts.get(p, 0) + 1
            if p == 2:
                value = rainbow_pair_value(quot, *lam)
                if not value.is_zero():
                    values[lam] = value
                continue
            rhs = equation_rhs(values, lam)
            if rhs.is_zero():
                continue
            u = kz.boundary_preimage(rhs)
            if u is None:
                raise InconsistencyError(
                    "defining equation for %r has no solution; its "
                    "right-hand side is not a boundary" % (lam,)
                )
            values[lam] = u
            table.findings.append({"tuple": lam, "reason": "no closed form; solved"})
    return table.verify()


# ---------------------------------------------------------------------------
# general construction (definitive scan thanks to the single-element lemma:
# once all shorter products are verified zero, each next solve either
# succeeds or exhibits a genuinely nonzero Massey product)


@dataclass
class TrivialMasseyOutcome:
    table: Optional[MasseyTable]
    witness: Optional[dict] = None  # set when a nonzero (Massey) product appears


def build_trivial_table(quot, p_max: int = 4) -> TrivialMasseyOutcome:
    """Attempt a trivial Massey operation on the full homology basis, all
    tuples up to length p_max.  Values are solved lowest degree first with
    the deterministic free-coordinates-zero solution.  The first tuple whose
    equation cannot be solved yields a nonzero Massey product (a NotGolod
    witness); p=2 failures are nonzero homology products.

    Only candidate tuples are visited, in sorted order, and only nonzero
    values are stored; each solved tuple is recorded in `findings`.
    TUPLE_CAP counts the candidates visited over all lengths, those whose
    degree makes the equation 0 = 0 included, so at length 2 the count is
    the tuple's rank in itertools.product order plus one.  When it runs
    out during length p, the outcome's table is the one through length
    p - 1, marked cut; a witness found before that is still returned.
    """
    kz = quot.koszul()
    basis = kz.homology_basis()
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
    n = quot.ring.nvars
    visited = 0
    for p in range(2, p_max + 1):
        for lam in candidate_tuples(values, p):
            visited += 1
            if visited > TUPLE_CAP:
                return TrivialMasseyOutcome(table=table.through(p - 1).verify())
            hom = sum(basis[i].hom_degree for i in lam) + p - 1
            if hom - 1 > n:
                # the value and every split term live above the top wedge
                # degree, so the equation is 0 = 0 with value 0
                continue
            rhs = equation_rhs(values, lam)
            if rhs.is_zero():
                continue
            if not rhs.is_cycle():
                raise InconsistencyError("trivial-Massey RHS is not a cycle")
            u = kz.boundary_preimage(rhs)
            if u is None:
                return TrivialMasseyOutcome(
                    table=None,
                    witness={
                        "tuple": lam,
                        "length": p,
                        "classes": [basis[i] for i in lam],
                        "product": rhs,
                        "kind": "product" if p == 2 else "massey",
                    },
                )
            values[lam] = u
            table.findings.append({"tuple": lam, "reason": "solved"})
    return TrivialMasseyOutcome(table=table.verify())
