"""Integer Smith normal form and the homology of the exotic pair.

The restriction matrix of a replayed configuration has rows indexed by
the boundary components and columns by the classes generating the second
cohomology of the surface: the two line classes of the base quadric, the
vertical (-1)-curves, and the boundary components among the exceptional
curves.  Its cokernel computes the first homology of the smooth locus.
"""

from __future__ import annotations

from delpezzo3 import simulator as sim
from delpezzo3.chains import Record, det, tuple_record


class IntMatrix(Record):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries) -> None:
        if len({len(r) for r in entries}) != 1 or not entries[0]:
            raise ValueError("matrix needs a positive rectangular shape")
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))  # row tuples

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


@tuple_record
class SmithForm:
    diagonal: tuple[int, ...]  # d_1 | d_2 | ... including zeros
    u: tuple  # unimodular row transform
    v: tuple  # unimodular column transform


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize by unimodular row and column operations, in one loop.

    For each t the pivot is an entry of least absolute value in the
    trailing block a[t:, t:], moved to (t, t), and floor-quotient steps
    clear its row and column.  If a remainder is left, or the pivot does
    not divide some entry of the block (whose row is then added to the
    pivot row, to leave a remainder at the next clearing), the pivot is
    chosen again; a remainder is smaller than the pivot, so the loop ends.
    It moves on to t + 1 only when the pivot divides the whole block, so
    the chain d_1 | d_2 | ... and the zeros last hold as it goes.  The
    result is checked, |det U| = |det V| = 1 and U M V = D, and a failed
    check raises ArithmeticError.
    """
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    u = _identity(rows)
    v = _identity(cols)
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < pivot[0]):
                    pivot = (abs(a[i][j]), i, j)
            if pivot and pivot[0] == 1:
                break  # no entry is smaller than a unit
        if pivot is None:
            break
        _, i, j = pivot
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, cols):
            q = a[t][j] // p
            if q:
                for row in a + v:
                    if row[t]:
                        row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :]):
            continue
        block = range(t + 1, rows) if abs(p) > 1 else ()  # a unit divides all
        i = next((i for i in block if any(x % p for x in a[i][t + 1 :])), None)
        if i is not None:
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        raise ArithmeticError("Smith form transform is not unimodular")
    # exact product identity U M V = D
    prod = _mat_mul(_mat_mul(u, [list(r) for r in m.entries]), v)
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            if prod[i][j] != want:
                raise ArithmeticError("Smith form product identity failed")
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


@tuple_record
class AbelianGroup:
    free_rank: int
    torsion: tuple[int, ...]  # nontrivial invariant factors > 1

    def render(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        return " + ".join(parts) if parts else "0"


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
