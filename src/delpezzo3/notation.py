"""Parser and renderer for the ASCII bracket notation.

Grammar (one type expression per line; ``#`` starts a comment)::

    typeexpr  := component ("+" component)* (";" clause)*
    clause    := constraint | "width=" INT | "char=" TAG
    component := label_prefix? chainexpr label_suffix? | label_prefix? fork label_suffix?
    chainexpr := chain ("*" chain)*
    chain     := "[" entry ("," entry)* "]"
    fork      := "<" entry ";" twig "," twig "," twig ">"
    twig      := label_prefix? chain label_suffix?
    entry     := atom flags | "(2)_{" iexpr "}"
    atom      := INT | PARAM | PARAM ("+"|"-") INT
    flags     := ("h")? ("u")? ("@" INT)*
    label_prefix := "@" INT          (attaches to the first entry)
    label_suffix := "@" INT          (attaches to the last entry)
    constraint := PARAM (">="|"<="|"=") INT | PARAM "in" "{" INT ("," INT)* "}"

``h`` marks a horizontal component, ``u`` the 2-section (which is always
also horizontal), ``@j`` the j-th vertical (-1)-curve.  ``(2)_{e}`` is a
run of (-2)-curves whose length may depend on parameters; length -1 is
the sentinel of the star-composition conventions.  A characteristic tag
(TAG) is one run of letters and digits without spaces: any, ne2, eq2,
ne23, eq3.

A ``TypeExpr`` is compiled in one step when it is built, into an
instantiation plan (``_Plan``) that never changes afterwards: its sorted
parameters and, per component, a ``_Chain`` or ``_Fork`` built with its
constant runs as tuples of interned entries and its parametric weights
and ``(2)_{e}`` runs as the syntax nodes themselves; a fork's constant
branch and twigs, and a component that names no parameter, are replaced
by what they build.  ``substitute`` evaluates only the parametric nodes,
and runs the star, sentinel and attach steps only where they can change
something, with the checks, messages and order of checks of a walk over
the whole tree.  ``assignments`` reads each parameter's domain from its
constraints alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from delpezzo3.boundary import Component, DecoratedType, Entry, chain_comp, fork_comp

PARAMS = set("klmabcdst")


class NotationError(ValueError):
    def __init__(self, message: str, pos: int | None = None, text: str | None = None):
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class IExpr:
    """Integer expression: a constant or parameter +/- constant."""

    param: str | None
    offset: int

    def evaluate(self, assignment: dict[str, int]) -> int:
        if self.param is None:
            return self.offset
        if self.param not in assignment:
            raise NotationError(f"no value for parameter {self.param!r}")
        return assignment[self.param] + self.offset

    def render(self) -> str:
        if self.param is None:
            return str(self.offset)
        if self.offset == 0:
            return self.param
        return f"{self.param}{'+' if self.offset > 0 else '-'}{abs(self.offset)}"


@dataclass(frozen=True, slots=True)
class EntryExpr:
    value: IExpr
    horizontal: bool = False
    two_section: bool = False
    labels: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class RepExpr:
    count: IExpr


ChainLit = tuple  # of EntryExpr | RepExpr


@dataclass(frozen=True, slots=True)
class ChainExprNode:
    parts: tuple[ChainLit, ...]


@dataclass(frozen=True, slots=True)
class TwigExpr:
    chain: ChainLit
    prefix: tuple[int, ...] = ()
    suffix: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class ForkExprNode:
    branch: EntryExpr
    twigs: tuple[TwigExpr, TwigExpr, TwigExpr]


@dataclass(frozen=True, slots=True)
class ComponentExpr:
    body: ChainExprNode | ForkExprNode
    prefix: tuple[int, ...] = ()
    suffix: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Constraint:
    param: str
    op: str  # ">=", "<=", "=", "in"
    values: tuple[int, ...]

    def admits(self, v: int) -> bool:
        if self.op == ">=":
            return v >= self.values[0]
        if self.op == "<=":
            return v <= self.values[0]
        if self.op == "=":
            return v == self.values[0]
        return v in self.values

    def render(self) -> str:
        if self.op == "in":
            return f"{self.param} in {{{','.join(map(str, self.values))}}}"
        return f"{self.param}{self.op}{self.values[0]}"


@dataclass(frozen=True, slots=True)
class TypeExpr:
    """A type expression, compiled into its ``_Plan`` when it is built."""

    components: tuple[ComponentExpr, ...]
    constraints: tuple[Constraint, ...] = ()
    width: int | None = None
    char_tag: str = "any"
    _plan: _Plan = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_plan", _Plan(self.components))

    def parameters(self) -> list[str]:
        return list(self._plan.params)


# ---------------------------------------------------------------------------
# Tokenizer.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<rep>\(2\)_\{)
  | (?P<int>\d+)
  | (?P<word>[A-Za-z]+)
  | (?P<op>>=|<=|[][<>{}(),;@*+=-])
  | (?P<comment>\#)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as (kind, text, position) tuples, up to a
    ``#`` and ending in an ``eof`` token at ``len(text)``."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "comment":
            break
        if kind == "bad":
            raise NotationError(f"unexpected character {m.group()!r}", m.start(), text)
        out.append((kind, m.group(), m.start()))
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the token tuples; ``self.i`` indexes the next
    token, and the eof token is never consumed except by an error."""

    def __init__(self, text: str, require_declared: bool = True):
        self.text = text
        self.require_declared = require_declared
        self.toks = _tokenize(text)
        self.i = 0
        self.weights: dict[str, IExpr] = {}  # the constant weights parsed so far

    def error(self, message: str, tok: tuple) -> NotationError:
        return NotationError(message, tok[2], self.text)

    def expect(self, text: str) -> None:
        tok = self.toks[self.i]
        self.i += 1
        if tok[1] != text:
            raise self.error(f"expected {text!r}, found {tok[1]!r}", tok)

    def expect_int(self) -> int:
        tok = self.toks[self.i]
        self.i += 1
        if tok[0] != "int":
            raise self.error(f"expected integer, found {tok[1]!r}", tok)
        return int(tok[1])

    # -- grammar -----------------------------------------------------------

    def parse(self) -> TypeExpr:
        toks = self.toks
        components = [self.component()]
        while toks[self.i][1] == "+":
            self.i += 1
            components.append(self.component())
        constraints: list[Constraint] = []
        width = None
        char_tag = "any"
        while toks[self.i][1] == ";":
            self.i += 1
            kind, text, _ = toks[self.i]
            if kind == "word" and text == "width":
                self.i += 1
                self.expect("=")
                width = self.expect_int()
            elif kind == "word" and text == "char":
                self.i += 1
                self.expect("=")
                char_tag = self.char_tag()
            else:
                constraints.append(self.constraint())
        tok = toks[self.i]
        if tok[0] != "eof":
            raise self.error(f"trailing input {tok[1]!r}", tok)
        expr = TypeExpr(tuple(components), tuple(constraints), width, char_tag)
        if self.require_declared:
            declared = {c.param for c in expr.constraints}
            undeclared = [p for p in expr.parameters() if p not in declared]
            if undeclared:
                raise NotationError(
                    f"undeclared parameter(s) {', '.join(undeclared)}: add a constraint"
                )
        return expr

    def char_tag(self) -> str:
        """One contiguous run of word and integer tokens, such as ``ne23``."""
        toks = self.toks
        tok = toks[self.i]
        if tok[0] not in ("int", "word"):
            raise self.error(f"expected a characteristic tag, found {tok[1]!r}", tok)
        tag, end = "", tok[2]
        while toks[self.i][0] in ("int", "word") and toks[self.i][2] == end:
            tag += toks[self.i][1]
            end += len(toks[self.i][1])
            self.i += 1
        return tag

    def constraint(self) -> Constraint:
        tok = self.toks[self.i]
        self.i += 1
        if tok[0] != "word" or len(tok[1]) != 1 or tok[1] not in PARAMS:
            raise self.error(f"expected parameter, found {tok[1]!r}", tok)
        op = self.toks[self.i]
        self.i += 1
        if op[1] in (">=", "<=", "="):
            return Constraint(tok[1], op[1], (self.expect_int(),))
        if op[1] == "in":
            self.expect("{")
            values = [self.expect_int()]
            while self.toks[self.i][1] == ",":
                self.i += 1
                values.append(self.expect_int())
            self.expect("}")
            return Constraint(tok[1], "in", tuple(values))
        raise self.error(f"bad constraint operator {op[1]!r}", op)

    def labels(self) -> tuple[int, ...]:
        """``("@" INT)*``"""
        toks, i = self.toks, self.i
        if toks[i][1] != "@":
            return ()
        out = []
        while toks[i][1] == "@":
            kind, text, pos = toks[i + 1]
            if kind != "int":
                raise NotationError(f"expected integer, found {text!r}", pos, self.text)
            out.append(int(text))
            i += 2
        self.i = i
        return tuple(out)

    def component(self) -> ComponentExpr:
        prefix = self.labels()
        tok = self.toks[self.i]
        if tok[1] == "[" or tok[0] == "rep":
            parts = [self.chain_lit()]
            while self.toks[self.i][1] == "*":
                self.i += 1
                parts.append(self.chain_lit())
            body: ChainExprNode | ForkExprNode = ChainExprNode(tuple(parts))
        elif tok[1] == "<":
            body = self.fork()
        else:
            raise self.error(f"expected a chain or fork, found {tok[1]!r}", tok)
        return ComponentExpr(body, prefix, self.labels())

    def chain_lit(self) -> ChainLit:
        toks = self.toks
        if toks[self.i][0] == "rep":
            # a bare repetition like (2)_{k-2} outside brackets
            return (self.rep(),)
        self.expect("[")
        entries = [self.entry()]
        while toks[self.i][1] == ",":
            self.i += 1
            entries.append(self.entry())
        self.expect("]")
        return tuple(entries)

    def fork(self) -> ForkExprNode:
        self.i += 1  # "<"
        branch = self.entry()
        if not isinstance(branch, EntryExpr):
            raise self.error("fork branch must be a single weight", self.toks[self.i])
        self.expect(";")
        twigs = [self.twig()]
        while self.toks[self.i][1] == ",":
            self.i += 1
            twigs.append(self.twig())
        self.expect(">")
        if len(twigs) != 3:
            raise NotationError(f"a fork needs exactly 3 twigs, found {len(twigs)}")
        return ForkExprNode(branch, tuple(twigs))

    def twig(self) -> TwigExpr:
        prefix = self.labels()
        chain = self.chain_lit()
        return TwigExpr(chain, prefix, self.labels())

    def rep(self) -> RepExpr:
        self.i += 1  # "(2)_{"
        count = self.iexpr()
        self.expect("}")
        return RepExpr(count)

    def iexpr(self) -> IExpr:
        """A repetition count: INT, "-" INT or PARAM (("+"|"-") INT)?."""
        kind, text, pos = self.toks[self.i]
        self.i += 1
        if kind == "int":
            return IExpr(None, int(text))
        if text == "-":
            return IExpr(None, -self.expect_int())
        if kind == "word" and len(text) == 1 and text in PARAMS:
            sign = self.toks[self.i][1]
            if sign in ("+", "-"):
                self.i += 1
                value = self.expect_int()
                return IExpr(text, value if sign == "+" else -value)
            return IExpr(text, 0)
        raise NotationError(f"expected integer expression, found {text!r}", pos, self.text)

    def entry(self) -> EntryExpr | RepExpr:
        toks, i = self.toks, self.i
        tok = kind, text, _ = toks[i]
        if kind == "int":
            value = self.weights.get(text)
            if value is None:
                value = self.weights[text] = IExpr(None, int(text))
            i += 1
            flags = ""
            if toks[i][0] == "word":
                flags = toks[i][1]
                i += 1
        elif kind == "word":
            i += 1
            if text[0] not in PARAMS:
                raise self.error(f"unknown parameter {text[0]!r}", tok)
            flags = text[1:]
            offset = 0
            sign = toks[i][1]
            if not flags and sign in ("+", "-"):
                self.i = i + 1
                offset = self.expect_int() if sign == "+" else -self.expect_int()
                i = self.i
                if toks[i][0] == "word":
                    flags = toks[i][1]
                    i += 1
            value = IExpr(text[0], offset)
        elif kind == "rep":
            return self.rep()
        else:
            raise self.error(f"expected an entry, found {text!r}", tok)
        self.i = i
        if not flags:
            return EntryExpr(value, False, False, self.labels())
        two_section = "u" in flags
        if flags.strip("hu"):  # a letter other than h and u
            raise self.error(f"unknown flags {flags!r}", tok)
        return EntryExpr(value, two_section or "h" in flags, two_section, self.labels())


def parse(text: str, require_declared: bool = True) -> TypeExpr:
    """Parse an ASCII type expression, with position-accurate errors.

    ``require_declared=False`` permits parameters without constraints
    (used for expected-singularity annotations, whose assignments come
    from the accompanying decorated expression).
    """
    return _Parser(text, require_declared).parse()


# ---------------------------------------------------------------------------
# Rendering.


def _render_entry(e: EntryExpr) -> str:
    out = e.value.render()
    if e.two_section:
        out += "hu"
    elif e.horizontal:
        out += "h"
    for l in e.labels:
        out += f"@{l}"
    return out


def _render_lit(lit: ChainLit) -> str:
    inner = []
    for item in lit:
        if isinstance(item, RepExpr):
            inner.append(f"(2)_{{{item.count.render()}}}")
        else:
            inner.append(_render_entry(item))
    return "[" + ",".join(inner) + "]"


def render(expr: TypeExpr) -> str:
    parts = []
    for comp in expr.components:
        text = "".join(f"@{l}" for l in comp.prefix)
        if isinstance(comp.body, ChainExprNode):
            text += "*".join(_render_lit(p) for p in comp.body.parts)
        else:
            twigs = []
            for twig in comp.body.twigs:
                t = "".join(f"@{l}" for l in twig.prefix)
                t += _render_lit(twig.chain)
                t += "".join(f"@{l}" for l in twig.suffix)
                twigs.append(t)
            text += f"<{_render_entry(comp.body.branch)};{','.join(twigs)}>"
        text += "".join(f"@{l}" for l in comp.suffix)
        parts.append(text)
    out = " + ".join(parts)
    for c in expr.constraints:
        out += f" ; {c.render()}"
    if expr.width is not None:
        out += f" ; width={expr.width}"
    if expr.char_tag != "any":
        out += f" ; char={expr.char_tag}"
    return out


# ---------------------------------------------------------------------------
# Substitution.

# the (2)_{-1} sentinel inside an evaluated chain (None, so that it keeps
# its identity when a compiled expression is copied or pickled)
_MARKER = None


def _eval(pieces, assignment: dict[str, int]) -> list:
    """Evaluate chain items (``EntryExpr`` and ``RepExpr``) and constant
    runs (tuples of Entry and sentinels, see ``_pieces``) in order."""
    out: list = []
    for item in pieces:
        kind = type(item)
        if kind is EntryExpr:
            w = item.value.evaluate(assignment)
            out.append(Entry(w, item.horizontal, item.two_section, item.labels))
        elif kind is tuple:
            out += item
        else:
            n = item.count.evaluate(assignment)
            if n < -1:
                raise NotationError(f"repetition count {n} below the (2)_{{-1}} sentinel")
            if n == -1:
                out.append(_MARKER)
            else:
                out += [Entry(2)] * n
    return out


def _resolve_markers(entries: list) -> list[Entry]:
    """Apply the in-bracket convention: [(2)_{-1}, b1, b2, ...] = [b2, ...]."""
    out: list[Entry] = []
    i = 0
    while i < len(entries):
        if entries[i] is _MARKER:
            if i + 1 >= len(entries):
                raise NotationError("(2)_{-1} has no following entry to absorb")
            i += 2  # drop the sentinel and its right neighbor
        else:
            out.append(entries[i])
            i += 1
    return out


def _star_merge(left: list, right: list) -> list:
    """eq-(2) star on evaluated entry lists (labels and marks kept)."""
    if len(left) == 1 and left[0] is _MARKER:
        if not right:
            raise NotationError("[(2)_{-1}] * [] is undefined")
        head = right[0]
        if head is _MARKER:
            raise NotationError("cannot star two sentinels")
        bumped = Entry(head.weight + 1, head.horizontal, head.two_section, head.labels)
        return [bumped] + right[1:]
    if not left or not right:
        raise NotationError("star operands must be nonempty")
    a, b = left[-1], right[0]
    if a is _MARKER or b is _MARKER:
        raise NotationError("misplaced (2)_{-1} sentinel in star composition")
    merged = Entry(
        a.weight + b.weight - 1,
        a.horizontal or b.horizontal,
        a.two_section or b.two_section,
        tuple(sorted(a.labels + b.labels)),
    )
    return left[:-1] + [merged] + right[1:]


def star_compose(t1, t2) -> tuple[int, ...]:
    """``_star_merge`` on bare weights: [a_1..a_k] * [b_1..b_l] =
    [a_1..a_{k-1}, a_k + b_1 - 1, b_2..b_l], and for ``t1`` the text
    ``"(2)_{-1}"``, [(2)_{-1}] * [b_1..b_l] = [b_1 + 1, b_2..b_l].  An
    empty operand raises NotationError, a ValueError."""
    left = [_MARKER] if t1 == "(2)_{-1}" else [Entry(w) for w in t1]
    return tuple(e.weight for e in _star_merge(left, [Entry(w) for w in t2]))


def _attach(entries: list[Entry], prefix: tuple[int, ...], suffix: tuple[int, ...]) -> list[Entry]:
    if not entries:
        # a parametrized component that vanished takes its attachments
        # with it (the (-1)-curve loses nothing but this meeting point)
        return []
    out = list(entries)
    if prefix:
        e = out[0]
        out[0] = Entry(e.weight, e.horizontal, e.two_section, e.labels + prefix)
    if suffix:
        e = out[-1]
        out[-1] = Entry(e.weight, e.horizontal, e.two_section, e.labels + suffix)
    return out


def _check_weights(entries) -> None:
    for e in entries:
        if e.weight < 2:
            raise NotationError(f"weight {e.weight} < 2 in a boundary position")


def _pieces(lit: ChainLit, params: set[str]) -> tuple:
    """A chain literal as ``_eval`` pieces.  Its first item that names a
    parameter (added to ``params``) splits it: the pieces of the items
    before it, the item, and the pieces of the items after it.  Without
    one, one tuple of its values, or, if evaluating it fails, its items,
    so that they fail where ``substitute`` reaches them."""
    for i, item in enumerate(lit):
        param = (item.value if type(item) is EntryExpr else item.count).param
        if param is not None:
            params.add(param)
            return _pieces(lit[:i], params) + (item,) + _pieces(lit[i + 1:], params)
    try:
        return (tuple(_eval(lit, {})),) if lit else ()
    except ValueError:
        return lit


class _Run:
    """A chain literal, or literals joined by ``*``, with the labels that
    attach to its ends: a fork's twig, or as a ``_Chain`` a chain
    component.  Its ``parts`` are the literals' ``_pieces``."""

    __slots__ = ("parts", "prefix", "suffix")

    def __init__(self, lits: tuple, prefix: tuple[int, ...], suffix: tuple[int, ...],
                 params: set[str]):
        self.parts = tuple([_pieces(lit, params) for lit in lits])
        self.prefix, self.suffix = prefix, suffix

    def build(self, assignment: dict[str, int]) -> list:
        """The entries after the star, sentinel and attach steps, each run
        only where it can change something."""
        if len(self.parts) == 1:
            merged = _eval(self.parts[0], assignment)
        else:  # every part is evaluated before the first star
            merged, *rest = [_eval(part, assignment) for part in self.parts]
            for part in rest:
                merged = _star_merge(merged, part)
        if _MARKER in merged:
            merged = _resolve_markers(merged)
        if self.prefix or self.suffix:
            merged = _attach(merged, self.prefix, self.suffix)
        return merged

    def runs(self, assignment: dict[str, int]) -> tuple[list[tuple[int, int]], list[tuple[int, bool]]]:
        """The entries ``build`` gives, read as runs ``(weight, count)``
        without building one, and its horizontal entries as pairs (run
        index, two_section); labels are left out.  An entry of a constant
        piece or an ``EntryExpr`` is a run of one, and a ``(2)_{e}`` the
        run (2, e).  A ``*`` composition, a ``(2)_{-1}`` sentinel or a
        weight below 2 raises NotationError, a ValueError: the first two
        change the entries around them, which no run reading follows."""
        if len(self.parts) != 1:
            raise NotationError("a * composition is not read as runs")
        runs: list[tuple[int, int]] = []
        marks: list[tuple[int, bool]] = []
        for item in self.parts[0]:
            kind = type(item)
            if kind is EntryExpr:
                if item.horizontal:
                    marks.append((len(runs), item.two_section))
                runs.append((item.value.evaluate(assignment), 1))
            elif kind is tuple:
                for e in item:
                    if e is _MARKER:
                        raise NotationError("a (2)_{-1} sentinel is not read as runs")
                    if e.horizontal:
                        marks.append((len(runs), e.two_section))
                    runs.append((e.weight, 1))
            else:
                n = item.count.evaluate(assignment)
                if n < 0:
                    raise NotationError(f"repetition count {n}: a (2)_{{-1}} sentinel"
                                        " or below is not read as runs")
                runs.append((2, n))
        for w, _ in runs:
            if w < 2:
                raise NotationError(f"weight {w} < 2 in a boundary position")
        return runs, marks


class _Chain(_Run):
    __slots__ = ()

    def build(self, assignment: dict[str, int]) -> Component:
        """The chain component, or ``()`` when it vanishes."""
        entries = _Run.build(self, assignment)
        _check_weights(entries)
        return chain_comp(entries) if entries else ()


class _Fork:
    """A fork component: its branch, an Entry if it names no parameter
    and evaluates, and three twigs, each its entries if it names no
    parameter and builds, else its ``_Run``."""

    __slots__ = ("branch", "twigs", "labelled")

    def __init__(self, comp: ComponentExpr, params: set[str]):
        self.branch = branch = comp.body.branch
        if branch.value.param is not None:
            params.add(branch.value.param)
        else:
            try:
                self.branch = Entry(branch.value.offset, branch.horizontal,
                                    branch.two_section, branch.labels)
            except ValueError:
                pass
        self.twigs = tuple([_constant(_Run((t.chain,), t.prefix, t.suffix, params))
                            for t in comp.body.twigs])
        self.labelled = bool(comp.prefix or comp.suffix)

    def build(self, assignment: dict[str, int]) -> Component:
        branch = self.branch
        if type(branch) is not Entry:
            branch = Entry(branch.value.evaluate(assignment), branch.horizontal,
                           branch.two_section, branch.labels)
        twigs = [t if type(t) is tuple else tuple(t.build(assignment)) for t in self.twigs]
        if not all(twigs):
            raise NotationError("fork twig vanished under substitution")
        fork = fork_comp(branch, twigs)
        _check_weights((branch,) + twigs[0] + twigs[1] + twigs[2])
        if self.labelled:
            raise NotationError("component labels on forks are not supported;"
                                " put them on twig entries")
        return fork


def _constant(plan):
    """``plan.build({})`` as a tuple when that succeeds, which it does only
    when nothing in the plan names a parameter; otherwise the plan, to
    build at each assignment (where a broken piece fails in its turn)."""
    try:
        return tuple(plan.build({}))
    except ValueError:
        return plan


class _Plan:
    """How ``substitute`` instantiates a TypeExpr: its sorted parameters,
    and per component the component itself when it names no parameter,
    else its ``_Chain`` or ``_Fork``."""

    __slots__ = ("params", "steps")

    def __init__(self, components: tuple[ComponentExpr, ...]):
        params: set[str] = set()
        self.steps = tuple([
            _constant(_Chain(comp.body.parts, comp.prefix, comp.suffix, params)
                      if isinstance(comp.body, ChainExprNode) else _Fork(comp, params))
            for comp in components
        ])
        self.params = tuple(sorted(params))


def _check_assignment(expr: TypeExpr, assignment: dict[str, int]) -> _Plan:
    """The plan of ``expr``, once ``assignment`` satisfies every constraint
    and gives every parameter a value."""
    for c in expr.constraints:
        if c.param in assignment and not c.admits(assignment[c.param]):
            raise NotationError(
                f"assignment {c.param}={assignment[c.param]} violates {c.render()}"
            )
    plan = expr._plan
    for p in plan.params:
        if p not in assignment:
            raise NotationError(f"no value for parameter {p!r}")
    return plan


def substitute(expr: TypeExpr, assignment: dict[str, int]) -> DecoratedType:
    """Instantiate the expression at a parameter assignment satisfying all
    constraints; empty chains vanish."""
    plan = _check_assignment(expr, assignment)
    components = []
    for step in plan.steps:
        comp = step if type(step) is tuple else step.build(assignment)
        if comp:
            components.append(comp)
    return DecoratedType(tuple(components), expr.width, expr.char_tag)


def chain_runs(expr: TypeExpr, assignment: dict[str, int]) -> list[tuple[list, list]]:
    """The chains of ``substitute(expr, assignment)`` read straight from
    the plan, without building a DecoratedType: per component, in order,
    its runs and horizontal marks as ``_Run.runs`` gives them (a constant
    chain's entries each a run of one); a vanished chain's runs hold no
    entry.  The assignment is checked as ``substitute`` checks it, but
    not the type as a DecoratedType checks it (marks for the width,
    labels).  A fork, or a chain that ``_Run.runs`` does not read, raises
    NotationError; nothing falls back to ``substitute``."""
    out = []
    for step in _check_assignment(expr, assignment).steps:
        if type(step) is _Chain:
            out.append(step.runs(assignment))
            continue
        if type(step) is not tuple or (step and step[0] == "fork"):
            raise NotationError("a fork is not read as runs")
        entries = step[1] if step else ()
        out.append(([(e.weight, 1) for e in entries],
                    [(k, e.two_section) for k, e in enumerate(entries) if e.horizontal]))
    return out


def assignments(expr: TypeExpr, cutoff: int):
    """All satisfying assignments with every parameter <= cutoff, in
    lexicographic order of the sorted parameter names.  A parameter's
    candidates are the values of its first ``=`` or ``in`` constraint,
    else ``range(max(>= bounds, default 2), cutoff + 1)``; it takes those
    <= cutoff that every constraint on it admits."""
    params = expr.parameters()
    domains = []
    for p in params:
        own = [c for c in expr.constraints if c.param == p]
        values = next((c.values for c in own if c.op in ("=", "in")), None)
        if values is None:
            values = range(max([c.values[0] for c in own if c.op == ">="], default=2), cutoff + 1)
        domains.append([v for v in sorted(set(values))
                        if v <= cutoff and all(c.admits(v) for c in own)])
    for combo in itertools.product(*domains):
        yield dict(zip(params, combo))
