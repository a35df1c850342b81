"""Command-line interface.

Exit codes: 0 success, 1 failed assertion (with --strict where noted),
2 usage or parse errors.  All rationals print exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import click

from delpezzo3 import fixtures, homology, notation, swaps, verify
from delpezzo3 import simulator as sim
from delpezzo3.boundary import (
    graph_automorphisms,
    render_singularity_type,
    singularity_type_of,
)
from delpezzo3.chains import dual_chain, ld_chain
from delpezzo3.reports import Report
from delpezzo3.verify import fmt_assignment


def _emit(report: Report, fmt: str) -> None:
    """Print the report in chunks of lines, never rendered whole."""
    lines = itertools.chain(
        report.csv_lines() if fmt in ("csv", "both") else (),
        report.markdown_lines() if fmt in ("markdown", "both") else (),
    )
    while chunk := "".join(itertools.islice(lines, 4096)):
        click.echo(chunk, nl=False)


def _load_root(name: str) -> verify.Root:
    if name not in verify.ROOTS:
        raise click.UsageError(f"unknown primitive root {name!r}")
    return _read(verify.load_root, name)


def _read(step, *args):
    """Run a parse or substitution ``step`` on user input or on the data
    under ``DP_FIXTURES``.  A NotationError, the validation ValueError of
    DecoratedType/Entry, or a malformed or unreadable fixture file becomes
    one ``parse error:`` line and exit 2."""
    try:
        return step(*args)
    except (ValueError, OSError) as err:  # NotationError is a ValueError
        click.echo(f"parse error: {err}", err=True)
        sys.exit(2)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "markdown", "both"]),
    default="csv", show_default=True, help="report rendering",
)


@click.group()
def main() -> None:
    """Verification and enumeration for rank-one del Pezzo surfaces of
    height 3."""


@main.command()
@click.argument("source")
@click.option("--width", type=int, default=None,
              help="override the width tag of a type expression; a usage error with a file")
@click.option("--cutoff", type=click.IntRange(min=0), default=12, show_default=True)
@click.option("--strict", is_flag=True, help="exit 1 if any row fails")
@format_option
def check(source, width, cutoff, strict, fmt):
    """Run the del Pezzo criterion on a type expression or fixture file.
    SOURCE is read as a file only if it names one; anything else, a
    directory included, is parsed as a type expression."""
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:  # a type expression too long to be a file name
        is_file = False
    if is_file:
        if width is not None:
            raise click.UsageError(
                "--width overrides the width of a type expression, not of a file")
        rows = _read(fixtures.parse_fixture_file, path)
    else:
        expr = _read(notation.parse, source)
        if width is not None:
            expr = notation.TypeExpr(expr.components, expr.constraints, width, expr.char_tag)
        rows = [fixtures.FixtureRow(name="arg", text=source, expr=expr)]
    report = Report("check", ("name", "assignment", "admissible", "lhs", "satisfied", "status"))
    for row in rows:
        for assignment in _read(list, fixtures.row_assignments(row, cutoff)):
            d = _read(notation.substitute, row.expr, assignment)
            try:
                inst = verify.evaluate(row.name, d, tuple(sorted(assignment.items())))
            except ValueError as err:
                click.echo(f"cannot check {row.name}: {err}", err=True)
                sys.exit(2)
            report.add(inst.name, fmt_assignment(inst.assignment), inst.admissible, inst.lhs,
                       inst.status == "PASS", inst.status)
            report.count(inst.status)
    _emit(report, fmt)
    if strict and report.failures():
        sys.exit(1)


@main.command("enum-abcd")
@click.option("--max", "cap", type=click.IntRange(min=0), default=50, show_default=True)
@format_option
def enum_abcd(cap, fmt):
    """Enumerate the width-3 two-chain family and verify the (a,b,c,d)
    solution table."""
    boxes = _read(fixtures.load_abcd_table)
    solutions = fixtures.abcd_enumerate(cap)
    report = Report("enum-abcd", ("column", "box", "instances", "status"))
    covered = set()
    ok = True
    for i, box in enumerate(boxes, start=1):
        instances = set(box.expand(cap))
        covered |= instances
        good = instances <= solutions
        report.add(i, _fmt_box(box), len(instances), "PASS" if good else "FAIL")
        report.count("PASS" if good else "FAIL")
        ok = ok and good
    extra = solutions - covered
    missing = covered - solutions
    report.count("solutions", len(solutions))
    report.count("outside-table", len(extra))
    report.count("table-not-solution", len(missing))
    _emit(report, fmt)
    if extra or missing or not ok:
        sys.exit(1)


def _fmt_box(box) -> str:
    parts = []
    for lo, hi in zip(box.lo, box.hi):
        if hi is None:
            parts.append(f"[{lo},inf)")
        elif hi == lo:
            parts.append(str(lo))
        else:
            parts.append(f"[{lo},{hi}]")
    return " ".join(parts)


@main.command()
@click.option("--root", "root_name", required=True, help="primitive model, e.g. w3a")
@click.option("--depth", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--cutoff", type=click.IntRange(min=0), default=8, show_default=True,
              help="parameter bound when matching fixture families")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes, at most one per core")
@format_option
def cascade(root_name, depth, cutoff, jobs, fmt):
    """Close a primitive model under reverse vertical swaps and match the
    result against the fixture corpus."""
    root = _load_root(root_name)
    result = root.cascade(depth, jobs)
    tables = _read(fixtures.load_all_tables, verify.CASCADE_STEMS, root_name)
    targets, _ = _read(verify.cascade_targets, tables, root, cutoff, depth)
    known = {t.key: f"{t.name} {fmt_assignment(t.assignment)}".strip() for t in targets}
    report = Report("cascade", ("canonical", "depth", "status", "lhs", "match"))
    for key, node in sorted(result.nodes.items()):
        match = known.get(key, "")
        report.add(_digest(key), node.depth, "PASS", node.lhs, match or "EXTRA")
        report.count("PASS")
        report.count("MATCHED" if match else "EXTRA")
    for key, node in sorted(result.pruned.items()):
        report.add(_digest(key), node.depth, "PRUNED", node.lhs, node.status)
        report.count("PRUNED")
    _emit(report, fmt)


def _digest(key: bytes) -> str:
    """A short stable digest of a canonical form, for report columns."""
    return hashlib.blake2b(key, digest_size=8).hexdigest()


@main.command("verify-tables")
@click.option("--table", "table_name", default="all", show_default=True,
              help="char0, char3, char2_moduli, char2, nonlt_char2 or all")
@click.option("--cutoff", type=click.IntRange(min=0), default=12, show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="worker processes for the --cascade-depth cascades, at most one per core")
@click.option("--cascade-depth", type=click.IntRange(min=0), default=0, show_default=True,
              help="also require width-3/width-1 rows to appear in the "
                   "cascade of their primitive root (0 = skip)")
@format_option
def verify_tables(table_name, cutoff, jobs, cascade_depth, fmt):
    """Check every fixture instance: admissibility, the width inequality,
    expected singularity types, and cross-row distinctness."""
    if table_name != "all" and table_name not in fixtures.TABLE_STEMS:
        raise click.UsageError(f"unknown table {table_name!r}")
    stems = fixtures.TABLE_STEMS if table_name == "all" else (table_name,)
    tables = _read(fixtures.load_all_tables, stems)
    cases = _read(verify.table_cases, tables, cutoff)
    instances = _read(verify.verify_instances, cases)
    report = Report("verify-tables", ("row", "assignment", "lhs", "status", "detail"))
    for inst in instances:
        report.add(inst.name, fmt_assignment(inst.assignment), inst.lhs, inst.status, inst.detail)
        report.count(inst.status)
    for c in verify.distinctness(cases, instances):
        if c.kind == "FAIL":
            report.add("distinctness", render_singularity_type(c.sing), "", "FAIL",
                       "; ".join(f"{n} {fmt_assignment(a)}" for n, a in c.hits))
        report.count(c.kind)
    if cascade_depth > 0:
        for root_name in verify.table_roots(tables):
            root = _load_root(root_name)
            targets, beyond = _read(verify.cascade_targets, tables, root, cutoff, cascade_depth)
            if beyond:
                report.count(f"cascade-beyond[{root_name}]", beyond)
            if not targets:
                continue
            missing, extra = verify.coverage(root, targets, cascade_depth, jobs)
            for t in missing:
                report.add(t.name, fmt_assignment(t.assignment), "", "FAIL",
                           f"not reached from {root_name}")
                report.count("FAIL")
            report.count(f"cascade-extra[{root_name}]", extra)
    _emit(report, fmt)
    if report.failures():
        sys.exit(1)


@main.command("homology")
@click.option("--fixture", "fixture_id", type=click.Choice(["1", "2"]), default=None)
@click.option("--construct", "construct", type=click.Choice(["x1", "x2"]), default=None)
def homology_cmd(fixture_id, construct):
    """Cokernel of a restriction matrix (transcribed or rebuilt)."""
    if (fixture_id is None) == (construct is None):
        raise click.UsageError("choose exactly one of --fixture or --construct")
    if fixture_id:
        m = _read(homology.IntMatrix, _read(fixtures.load_matrix, f"exotic_matrix_{fixture_id}"))
    else:
        plan = _read(sim.load_plan, fixtures.data_dir() / "plans" / f"{construct}.plan")
        try:
            m = homology.build_restriction_matrix(sim.replay(plan), plan.fibration)
        except ValueError as err:  # SimulationError: a plan that parses but does not replay
            click.echo(f"simulation error: {err}", err=True)
            sys.exit(1)
    group = homology.cokernel(m)
    click.echo(group.render())


@main.command()
@click.argument("planfile", type=click.Path(exists=True, dir_okay=False))
@format_option
def simulate(planfile, fmt):
    """Replay a blowup plan and report the resulting configuration."""
    try:
        plan = sim.load_plan(Path(planfile))
    except ValueError as err:  # SimulationError, or a plan that is not UTF-8
        click.echo(f"plan error: {err}", err=True)
        sys.exit(2)
    try:
        cfg = sim.replay(plan)
        d = sim.extract_decorated_type(cfg, plan.fibration)
        report = Report("simulate", ("item", "value"))
        report.add("plan", plan.name)
        report.add("picard-rank", cfg.picard_rank)
        report.add("K^2", cfg.k_squared)
        report.add("boundary-components", len(sim.boundary_curves(cfg)))
        report.add("singularity-type", render_singularity_type(singularity_type_of(d)))
        report.add("sigma-identity", sim.sigma_identity_check(cfg, plan.fibration))
        if plan.fibration.width == 2:
            report.add("width2-bookkeeping", sim.width2_bookkeeping_check(cfg, plan.fibration))
        if plan.fibration.width == 1:
            report.add("width1-bookkeeping", sim.width1_bookkeeping_check(cfg, plan.fibration))
        for bf in plan.fibration.base_fibers:
            data = sim.analyze_fiber(cfg, plan.fibration, bf)
            report.add(f"fiber[{bf}]",
                       f"shape={list(data.shape)} sigma={data.sigma} mu={data.mu}")
        report.add(
            "vertically-primitive",
            swaps.is_vertically_primitive(d, sim.node_labels(cfg, plan.fibration)),
        )
    except ValueError as err:  # SimulationError, or the width/mark checks of DecoratedType
        click.echo(f"simulation error: {err}", err=True)
        sys.exit(1)
    _emit(report, fmt)


def _chain_weights(text: str) -> tuple[int, ...]:
    entries, layout = notation.substitute(notation.parse(text), {}).walk()
    if len(layout) != 1 or layout[0][0] != "chain":
        raise notation.NotationError("expected exactly one chain")
    return tuple(e.weight for e in entries)


@main.command()
@click.argument("chain_text")
def dual(chain_text):
    """Dual chain: dp3 dual "[3]" prints [2,2]."""
    weights = _read(_chain_weights, chain_text)
    try:
        out = dual_chain(weights)
    except ValueError as err:
        click.echo(str(err), err=True)
        sys.exit(1)
    click.echo("[" + ",".join(str(w) for w in out) + "]")


@main.command()
@click.argument("chain_text")
@click.argument("position", type=int)
def ld(chain_text, position):
    """Log discrepancy of a chain component: dp3 ld "[2,3]" 2."""
    weights = _read(_chain_weights, chain_text)
    try:
        value = ld_chain(weights, position)
    except IndexError as err:  # a position outside the chain is a usage error
        click.echo(str(err), err=True)
        sys.exit(2)
    except ValueError as err:
        click.echo(str(err), err=True)
        sys.exit(1)
    click.echo(f"{value.numerator}/{value.denominator}")


@main.command("parse")
@click.argument("text")
def parse_cmd(text):
    """Parse a type expression; print the canonical rendering and data."""
    expr = _read(notation.parse, text)
    params = expr.parameters()
    d = None if params else _read(notation.substitute, expr, {})
    click.echo(notation.render(expr))
    if params:
        click.echo("parameters: " + ", ".join(params))
    else:
        click.echo("singularity type: " + render_singularity_type(singularity_type_of(d)))
        aut = graph_automorphisms(d)
        click.echo(f"graph automorphisms: {aut.order}")


if __name__ == "__main__":
    main()
