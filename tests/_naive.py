"""Small, slow, set-based reimplementations used as test oracles.

Everything here works on (ground, bases) pairs where ground is a
frozenset of labels and bases is a frozenset of frozensets.  No bitmasks,
no caching, no shared code with the package: ranks come straight from
the definition, connectivity from scanning every bipartition, components
from circuit reachability, and polytope dimensions from Fraction-based
Gaussian elimination (the package uses integer fraction-free
elimination, so the arithmetic cores differ too).
"""

from fractions import Fraction
from itertools import combinations


def as_pair(matroid):
    """Convert a package Matroid to the (ground, bases) shape used here."""
    ground = frozenset(matroid.ground.labels)
    bases = frozenset(frozenset(b.labels()) for b in matroid.bases)
    return ground, bases


def rank(bases, x):
    return max(len(b & x) for b in bases)


def independent(bases, x):
    return any(x <= b for b in bases)


def closure(ground, bases, x):
    r = rank(bases, x)
    return frozenset(e for e in ground if rank(bases, x | {e}) == r)


def dual_bases(ground, bases):
    return frozenset(ground - b for b in bases)


def restriction(bases, sub):
    """Bases of the restriction to sub: maximal independent subsets."""
    r = rank(bases, sub)
    return frozenset(
        frozenset(c) for c in combinations(sorted(sub), r) if independent(bases, frozenset(c))
    )


def connected(ground, bases):
    if len(ground) <= 1:
        return True
    full = rank(bases, ground)
    elems = sorted(ground)
    for size in range(1, len(elems)):
        for c in combinations(elems, size):
            a = frozenset(c)
            if rank(bases, a) + rank(bases, ground - a) == full:
                return False
    return True


def circuits(ground, bases):
    """Minimal dependent sets, by growing size."""
    found = []
    for size in range(1, len(ground) + 1):
        for c in combinations(sorted(ground), size):
            s = frozenset(c)
            if not independent(bases, s) and not any(x < s for x in found):
                found.append(s)
    return found


def cyclic_flats(ground, bases):
    """Sets equal to their closure and to the union of the circuits
    inside them, by growing size."""
    circs = circuits(ground, bases)
    out = []
    for size in range(len(ground) + 1):
        for c in combinations(sorted(ground), size):
            s = frozenset(c)
            if closure(ground, bases, s) != s:
                continue
            if frozenset().union(*(x for x in circs if x <= s)) == s:
                out.append(s)
    return out


def three_connected(ground, bases):
    """Connected, and no split into two sides of at least two elements
    each with r(X) + r(E - X) <= r(E) + 1."""
    if not connected(ground, bases):
        return False
    full = rank(bases, ground)
    for size in range(2, len(ground) - 1):
        for c in combinations(sorted(ground), size):
            a = frozenset(c)
            if rank(bases, a) + rank(bases, ground - a) <= full + 1:
                return False
    return True


def components(ground, bases):
    """Partition by circuit reachability: e ~ f iff some circuit holds both."""
    parent = {e: e for e in ground}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for circ in circuits(ground, bases):
        members = sorted(circ)
        for other in members[1:]:
            parent[find(other)] = find(members[0])
    groups = {}
    for e in ground:
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: sorted(g))


def locked(ground, bases, sub):
    """The four defining conditions, each from first principles."""
    comp = ground - sub
    if not sub or not comp:
        return False
    if not connected(sub, restriction(bases, sub)):
        return False
    duals = dual_bases(ground, bases)
    if not connected(comp, restriction(duals, comp)):
        return False
    if rank(bases, sub) < 2:
        return False
    if rank(duals, comp) < 2:
        return False
    return True


def all_locked(ground, bases):
    """Union over components of each component's locked subsets."""
    out = []
    for comp in components(ground, bases):
        sub_bases = restriction(bases, comp)
        for size in range(1, len(comp)):
            for c in combinations(sorted(comp), size):
                if locked(comp, sub_bases, frozenset(c)):
                    out.append(frozenset(c))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def gauss_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank_ = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        inv = 1 / rows[rank_][col]
        rows[rank_] = [v * inv for v in rows[rank_]]
        for i in range(len(rows)):
            if i != rank_ and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def affine_dim(points):
    if not points:
        return -1
    base = points[0]
    vecs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    if not vecs:
        return 0
    return gauss_rank(vecs)


def char_vector(order, subset):
    return tuple(Fraction(1) if e in subset else Fraction(0) for e in order)


def facet_tight_sets(ground, vertices):
    """Facets of conv(vertices) among the candidate inequalities
    x(e) >= 0 and x(A) <= max over vertices, one frozenset of vertex
    indices per facet found."""
    order = sorted(ground)
    points = [char_vector(order, v) for v in vertices]
    dim = affine_dim(points)
    facets = set()

    def tight_of(coeff_set, sense_max):
        vals = [sum(p[i] for i, e in enumerate(order) if e in coeff_set) for p in points]
        bound = max(vals) if sense_max else Fraction(0)
        return frozenset(i for i, v in enumerate(vals) if v == bound)

    for e in order:
        tight = tight_of({e}, sense_max=False)
        if tight and affine_dim([points[i] for i in tight]) == dim - 1:
            facets.add(tight)
    for size in range(1, len(order) + 1):
        for c in combinations(order, size):
            tight = tight_of(set(c), sense_max=True)
            if tight and affine_dim([points[i] for i in tight]) == dim - 1:
                facets.add(tight)
    return dim, frozenset(facets)


def tight_set(vertices, support, rhs):
    """Indices of the vertices (label sets) holding exactly rhs labels
    of the support, one vertex at a time."""
    return frozenset(j for j, v in enumerate(vertices) if len(v & support) == rhs)


def violations(rows, point):
    """How far the point (a dict from label to value) lies on the wrong
    side of each row (support labels, sense, rhs), with Fraction
    arithmetic, a float rhs included; an "=" row counts its absolute gap."""
    out = []
    for support, sense, rhs in rows:
        gap = sum((Fraction(point[e]) for e in support), Fraction(0)) - Fraction(rhs)
        out.append(max(Fraction(0), {"<=": gap, ">=": -gap, "=": abs(gap)}[sense]))
    return out


def _package_order(ground, sets):
    """Equal-size sets in the package's order: as binary numbers with one
    digit per element and the last element most significant, that is,
    by their index lists sorted in descending order."""
    position = {e: i for i, e in enumerate(ground)}
    return sorted(set(sets), key=lambda s: sorted((position[e] for e in s), reverse=True))


def exchange_witness(ground, bases):
    """The first (B1, B2, e) at which basis exchange fails, or None.
    Here ground is the label sequence in ground-set order; bases are
    visited in the package's order and elements in ground-set order."""
    ordered = _package_order(ground, bases)
    family = set(ordered)
    for b1 in ordered:
        for b2 in ordered:
            for e in ground:
                if e not in b1 or e in b2:
                    continue
                if not any((b1 - {e}) | {f} in family for f in b2 - b1):
                    return b1, b2, e
    return None


def spanning_trees(num_vertices, edges):
    """The spanning trees of a multigraph, as a frozenset of frozensets of
    edge indices: every (V-1)-subset of the edges, kept when a fresh
    union-find joins two different roots at each of its edges."""

    def root(parent, a):
        while parent[a] != a:
            a = parent[a]
        return a

    trees = set()
    for combo in combinations(range(len(edges)), num_vertices - 1):
        parent = list(range(num_vertices))
        for i in combo:
            ru, rv = root(parent, edges[i][0]), root(parent, edges[i][1])
            if ru == rv:
                break
            parent[ru] = rv
        else:
            trees.add(frozenset(combo))
    return frozenset(trees)


def file_text(name, ground, rank, bases, encoding):
    """The flat file for a basis family, written from the format rules:
    three headers, then the bases in the package's order or the non-basis
    r-subsets in lexicographic order, elements in ground-set order.
    ``auto`` lists the non-bases only when there are strictly fewer."""
    bases = set(bases)
    non_rows = [c for c in combinations(ground, rank) if frozenset(c) not in bases]
    if encoding == "auto":
        encoding = "nonbases" if len(non_rows) < len(bases) else "bases"
    if encoding == "bases":
        rows = [[e for e in ground if e in b] for b in _package_order(ground, bases)]
    else:
        rows = non_rows
    lines = [f"name {name}", f"elements {' '.join(ground)}", f"rank {rank}", f"{encoding}:"]
    lines += [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


class Refused(Exception):
    """A file that the format rules refuse: ``kind`` names the package's
    exception class, and ``message`` its text."""

    def __init__(self, kind, message):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def listed_rows(text):
    """The section of a file with well-formed headers, its ground set and
    rank, and its rows, each a list of labels in file order, read from the
    format rules: comment and blank lines dropped, and an empty ``bases``
    section the one empty basis."""
    lines = [line.strip() for line in text.replace("\r\n", "\n").split("\n")]
    lines = [line for line in lines if line and not line.startswith("#")]
    at = lines.index("bases:") if "bases:" in lines else lines.index("nonbases:")
    headers = dict(line.partition(" ")[::2] for line in lines[:at])
    section = lines[at][:-1]
    rows = [line.split() for line in lines[at + 1:]]
    if section == "bases" and not rows:
        rows = [[]]
    return section, headers["elements"].split(), int(headers["rank"]), rows


def read_file(text):
    """The bases of a file with well-formed headers, as a frozenset of
    frozensets of labels, read from its ``listed_rows``: every row's
    labels checked before any row's size, and a ``nonbases`` listing
    taken away from all the r-subsets.  A refused file raises
    ``Refused``."""
    section, ground, rank, rows = listed_rows(text)
    for row in rows:
        for label in row:
            if label not in ground:
                raise Refused("ParseError", f"unknown element {label!r} in {section} section")
        if len(set(row)) < len(row):
            raise Refused("ParseError", f"repeated element in set: {' '.join(row)}")
    listed = {frozenset(row) for row in rows}
    if section == "bases":
        return frozenset(listed)
    for row in rows:
        if len(row) != rank:
            raise Refused(
                "ParseError", f"nonbasis {{{' '.join(sorted(row))}}} does not have rank cardinality"
            )
    return frozenset(frozenset(c) for c in combinations(ground, rank)) - listed
