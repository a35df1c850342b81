"""Integer Smith normal form and the homology of the exotic pair.

The restriction matrix of a replayed configuration has rows indexed by
the boundary components and columns by the classes generating the second
cohomology of the surface: the two line classes of the base quadric, the
vertical (-1)-curves, and the boundary components among the exceptional
curves.  Its cokernel computes the first homology of the smooth locus.
"""

from __future__ import annotations

from dataclasses import dataclass

from delpezzo3 import simulator as sim
from delpezzo3.chains import det


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        rows = len(self.entries)
        if rows == 0 or len({len(r) for r in self.entries}) != 1:
            raise ValueError("matrix needs a positive rectangular shape")
        object.__setattr__(self, "entries", tuple(tuple(r) for r in self.entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True)
class SmithForm:
    diagonal: tuple[int, ...]  # d_1 | d_2 | ... including zeros
    u: tuple  # unimodular row transform
    v: tuple  # unimodular column transform


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize by unimodular row/column operations, divisibility
    chain d_1 | d_2 | ...; pivots chosen with minimal absolute value."""
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        for j in range(cols):
            a[dst][j] += q * a[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            progress = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                    progress = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                    progress = True
            if not progress:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce the divisibility chain
    t = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if a[i][i] and a[i + 1][i + 1] % a[i][i] != 0:
                add_col(i + 1, i, 1)
                # re-clear the 2x2 block
                while a[i + 1][i] != 0:
                    if a[i][i] != 0:
                        q = a[i + 1][i] // a[i][i]
                        add_row(i, i + 1, -q)
                    if a[i + 1][i] != 0:
                        swap_rows(i, i + 1)
                while a[i][i + 1] != 0:
                    q = a[i][i + 1] // a[i][i]
                    add_col(i, i + 1, -q)
                    if a[i][i + 1] != 0:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
            elif a[i][i] == 0 and a[i + 1][i + 1] != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # exact product identity U M V = D
    prod = _mat_mul(_mat_mul(u, [list(r) for r in m.entries]), v)
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == want, "Smith form product identity failed"
    return SmithForm(diag, tuple(map(tuple, u)), tuple(map(tuple, v)))


def _mat_mul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            if a[i][k]:
                aik = a[i][k]
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int
    torsion: tuple[int, ...]  # nontrivial invariant factors > 1

    def render(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        return " + ".join(parts) if parts else "0"

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out


def cokernel(m: IntMatrix) -> AbelianGroup:
    """The quotient of the row space Z^rows by the image of the matrix
    (viewed as a map Z^cols -> Z^rows)."""
    snf = smith_normal_form(m)
    rank = sum(1 for d in snf.diagonal if d != 0)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return AbelianGroup(m.rows - rank, torsion)


# ---------------------------------------------------------------------------
# Restriction matrices from replayed configurations.


def build_restriction_matrix(cfg: sim.SurfaceConfig, fibration: sim.Fibration) -> IntMatrix:
    """Rows: boundary components.  Columns: general members of the two
    rulings, the vertical (-1)-curves, and the boundary components among
    the exceptional curves.  Entries are exact intersection numbers."""
    if cfg.base != "P1xP1":
        raise ValueError("restriction matrices are built over P1xP1 replays")
    boundary = sim.boundary_curves(cfg)
    declared = [c for c in boundary if not cfg.curves[c].exceptional]
    exc_boundary = [c for c in boundary if cfg.curves[c].exceptional]
    horizontals = [c for c in declared if c in fibration.horizontal]
    vertical_declared = [c for c in declared if c not in fibration.horizontal]
    row_order = horizontals + vertical_declared + exc_boundary
    minus_ones = sim.minus_one_curves(cfg)
    columns: list = [("class", "v"), ("class", "h")]
    columns += [("curve", c) for c in minus_ones]
    columns += [("curve", c) for c in exc_boundary]
    entries = []
    for b in row_order:
        row = []
        for kind, c in columns:
            if kind == "class":
                row.append(sim.class_pairing(cfg, b, c))
            else:
                row.append(cfg.intersection(b, c))
        entries.append(row)
    return IntMatrix(tuple(map(tuple, entries)))
