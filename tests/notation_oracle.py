"""The parser and substitution that ``delpezzo3.notation`` replaced with a
one-pass tokenizer and compiled instantiation plans, kept as an oracle for
the tests.

``parse`` tokenizes character by character and walks the tokens through
``peek``/``next`` methods; ``substitute`` walks the syntax tree of the
expression at every assignment, evaluating every entry and running the
star, sentinel and attach steps on every component.  Both build the
package's syntax tree, ``NotationError`` and ``DecoratedType``, so their
results compare with ``==`` against the package's.

``assignments`` is the enumeration that read each parameter's domain
from separate bounds (the first ``=``, else the first ``in``, else the
largest ``>=`` and the least ``<=``) before filtering it by every
constraint; the package takes one candidate list from the constraints
and filters that.

One rule differs from the code as it was: a ``char=`` tag is one
contiguous run of word and integer tokens.  The old loop joined such
tokens across whitespace (``char=ne2 3`` read as ``ne23``), took any
token as the tag's first, and peeked past the end of the input after
``char=`` (an ``IndexError``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from delpezzo3.boundary import DecoratedType, Entry, chain_comp, fork_comp
from delpezzo3.notation import (
    PARAMS,
    ChainExprNode,
    ChainLit,
    ComponentExpr,
    Constraint,
    EntryExpr,
    ForkExprNode,
    IExpr,
    NotationError,
    RepExpr,
    TwigExpr,
    TypeExpr,
)


def parameters(expr: TypeExpr) -> list[str]:
    """The sorted parameters of ``expr``, from a walk of its syntax tree."""
    seen: set[str] = set()

    def walk_lit(lit):
        for item in lit:
            e = item.count if isinstance(item, RepExpr) else item.value
            if e.param is not None:
                seen.add(e.param)

    for comp in expr.components:
        if isinstance(comp.body, ChainExprNode):
            for part in comp.body.parts:
                walk_lit(part)
        else:
            if comp.body.branch.value.param is not None:
                seen.add(comp.body.branch.value.param)
            for twig in comp.body.twigs:
                walk_lit(twig.chain)
    return sorted(seen)


# ---------------------------------------------------------------------------
# Tokenizer.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<rep>\(2\)_\{)
  | (?P<int>\d+)
  | (?P<word>[A-Za-z]+)
  | (?P<op>>=|<=|[][<>{}(),;@*+=-])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "#":
            break
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise NotationError(f"unexpected character {text[i]!r}", i, text)
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, require_declared: bool = True):
        self.text = text
        self.require_declared = require_declared
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise NotationError(f"expected {text!r}, found {tok.text!r}", tok.pos, self.text)
        return tok

    def fail(self, message: str):
        raise NotationError(message, self.peek().pos, self.text)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> TypeExpr:
        components = [self.component()]
        while self.peek().text == "+":
            self.next()
            components.append(self.component())
        constraints: list[Constraint] = []
        width = None
        char_tag = "any"
        while self.peek().text == ";":
            self.next()
            tok = self.peek()
            if tok.kind == "word" and tok.text == "width":
                self.next()
                self.expect("=")
                width = int(self.expect_int().text)
            elif tok.kind == "word" and tok.text == "char":
                self.next()
                self.expect("=")
                char_tag = self.char_tag()
            else:
                constraints.append(self.constraint())
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")
        expr = TypeExpr(tuple(components), tuple(constraints), width, char_tag)
        if self.require_declared:
            declared = {c.param for c in expr.constraints}
            undeclared = [p for p in parameters(expr) if p not in declared]
            if undeclared:
                raise NotationError(
                    f"undeclared parameter(s) {', '.join(undeclared)}: add a constraint"
                )
        return expr

    def char_tag(self) -> str:
        tok = self.next()
        if tok.kind not in ("int", "word"):
            raise NotationError(
                f"expected a characteristic tag, found {tok.text!r}", tok.pos, self.text
            )
        tag, end = tok.text, tok.pos + len(tok.text)
        while self.peek().kind in ("int", "word") and self.peek().pos == end:
            tok = self.next()
            tag, end = tag + tok.text, end + len(tok.text)
        return tag

    def expect_int(self) -> Token:
        tok = self.next()
        if tok.kind != "int":
            raise NotationError(f"expected integer, found {tok.text!r}", tok.pos, self.text)
        return tok

    def constraint(self) -> Constraint:
        tok = self.next()
        if tok.kind != "word" or len(tok.text) != 1 or tok.text not in PARAMS:
            raise NotationError(f"expected parameter, found {tok.text!r}", tok.pos, self.text)
        param = tok.text
        op = self.next()
        if op.text in (">=", "<=", "="):
            value = int(self.expect_int().text)
            return Constraint(param, op.text, (value,))
        if op.text == "in":
            self.expect("{")
            values = [int(self.expect_int().text)]
            while self.peek().text == ",":
                self.next()
                values.append(int(self.expect_int().text))
            self.expect("}")
            return Constraint(param, "in", tuple(values))
        raise NotationError(f"bad constraint operator {op.text!r}", op.pos, self.text)

    def label(self) -> int:
        self.expect("@")
        return int(self.expect_int().text)

    def labels_star(self) -> tuple[int, ...]:
        out = []
        while self.peek().text == "@":
            out.append(self.label())
        return tuple(out)

    def component(self) -> ComponentExpr:
        prefix = self.labels_star()
        tok = self.peek()
        if tok.text == "[" or tok.kind == "rep":
            body: ChainExprNode | ForkExprNode = self.chainexpr()
        elif tok.text == "<":
            body = self.fork()
        else:
            self.fail(f"expected a chain or fork, found {tok.text!r}")
        suffix = self.labels_star()
        return ComponentExpr(body, prefix, suffix)

    def chainexpr(self) -> ChainExprNode:
        parts = [self.chain_lit()]
        while self.peek().text == "*":
            self.next()
            parts.append(self.chain_lit())
        return ChainExprNode(tuple(parts))

    def chain_lit(self) -> ChainLit:
        if self.peek().kind == "rep":
            # a bare repetition like (2)_{k-2} outside brackets
            return (self.rep(),)
        self.expect("[")
        entries = [self.entry()]
        while self.peek().text == ",":
            self.next()
            entries.append(self.entry())
        self.expect("]")
        return tuple(entries)

    def fork(self) -> ForkExprNode:
        self.expect("<")
        branch = self.entry()
        if not isinstance(branch, EntryExpr):
            self.fail("fork branch must be a single weight")
        self.expect(";")
        twigs = [self.twig()]
        while self.peek().text == ",":
            self.next()
            twigs.append(self.twig())
        self.expect(">")
        if len(twigs) != 3:
            raise NotationError(f"a fork needs exactly 3 twigs, found {len(twigs)}")
        return ForkExprNode(branch, tuple(twigs))

    def twig(self) -> TwigExpr:
        prefix = self.labels_star()
        chain = self.chain_lit()
        suffix = self.labels_star()
        return TwigExpr(chain, prefix, suffix)

    def rep(self) -> RepExpr:
        self.expect("(2)_{")
        count = self.iexpr(allow_negative=True)
        self.expect("}")
        return RepExpr(count)

    def iexpr(self, allow_negative: bool = False) -> IExpr:
        tok = self.next()
        if tok.kind == "int":
            return IExpr(None, int(tok.text))
        if tok.text == "-" and allow_negative:
            value = self.expect_int()
            return IExpr(None, -int(value.text))
        if tok.kind == "word" and len(tok.text) == 1 and tok.text in PARAMS:
            param = tok.text
            if self.peek().text in ("+", "-"):
                sign = 1 if self.next().text == "+" else -1
                value = int(self.expect_int().text)
                return IExpr(param, sign * value)
            return IExpr(param, 0)
        raise NotationError(f"expected integer expression, found {tok.text!r}", tok.pos, self.text)

    def entry(self):
        tok = self.peek()
        if tok.kind == "rep":
            return self.rep()
        flags_text = ""
        if tok.kind == "int":
            self.next()
            value = IExpr(None, int(tok.text))
            if self.peek().kind == "word":
                flags_text = self.next().text
        elif tok.kind == "word":
            word = self.next().text
            if word[0] not in PARAMS:
                raise NotationError(
                    f"unknown parameter {word[0]!r}", tok.pos, self.text
                )
            param = word[0]
            flags_text = word[1:]
            offset = 0
            if not flags_text and self.peek().text in ("+", "-"):
                sign = 1 if self.next().text == "+" else -1
                offset = sign * int(self.expect_int().text)
                if self.peek().kind == "word":
                    flags_text = self.next().text
            value = IExpr(param, offset)
        else:
            self.fail(f"expected an entry, found {tok.text!r}")
        horizontal = "h" in flags_text
        two_section = "u" in flags_text
        if set(flags_text) - {"h", "u"}:
            raise NotationError(
                f"unknown flags {flags_text!r}", tok.pos, self.text
            )
        labels = []
        while self.peek().text == "@":
            labels.append(self.label())
        return EntryExpr(value, horizontal or two_section, two_section, tuple(labels))


def parse(text: str, require_declared: bool = True) -> TypeExpr:
    return _Parser(text, require_declared).parse()


# ---------------------------------------------------------------------------
# Substitution.

_MARKER = object()  # the (2)_{-1} sentinel inside an evaluated chain


def _eval_lit(lit: ChainLit, assignment: dict[str, int]) -> list:
    out: list = []
    for item in lit:
        if isinstance(item, RepExpr):
            n = item.count.evaluate(assignment)
            if n < -1:
                raise NotationError(f"repetition count {n} below the (2)_{{-1}} sentinel")
            if n == -1:
                out.append(_MARKER)
            else:
                out.extend([Entry(2)] * n)
        else:
            w = item.value.evaluate(assignment)
            out.append(Entry(w, item.horizontal, item.two_section, item.labels))
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


def substitute(expr: TypeExpr, assignment: dict[str, int]) -> DecoratedType:
    for c in expr.constraints:
        if c.param in assignment and not c.admits(assignment[c.param]):
            raise NotationError(
                f"assignment {c.param}={assignment[c.param]} violates {c.render()}"
            )
    for p in parameters(expr):
        if p not in assignment:
            raise NotationError(f"no value for parameter {p!r}")
    components = []
    for comp in expr.components:
        if isinstance(comp.body, ChainExprNode):
            parts = [_eval_lit(p, assignment) for p in comp.body.parts]
            merged = parts[0]
            for part in parts[1:]:
                merged = _star_merge(merged, part)
            entries = _resolve_markers(merged)
            entries = _attach(entries, comp.prefix, comp.suffix)
            _check_weights(entries)
            if entries:
                components.append(chain_comp(entries))
        else:
            branch_e = comp.body.branch
            branch = Entry(
                branch_e.value.evaluate(assignment),
                branch_e.horizontal,
                branch_e.two_section,
                branch_e.labels,
            )
            twigs = []
            for twig in comp.body.twigs:
                entries = _resolve_markers(_eval_lit(twig.chain, assignment))
                entries = _attach(entries, twig.prefix, twig.suffix)
                twigs.append(tuple(entries))
            if any(not t for t in twigs):
                raise NotationError("fork twig vanished under substitution")
            fork = fork_comp(branch, twigs)
            _check_weights([branch] + [e for t in twigs for e in t])
            if comp.prefix or comp.suffix:
                raise NotationError("component labels on forks are not supported;"
                                    " put them on twig entries")
            components.append(fork)
    return DecoratedType(
        tuple(components), width=expr.width, char_tag=expr.char_tag
    )


def assignments(expr: TypeExpr, cutoff: int):
    """All satisfying assignments with every parameter <= cutoff, in
    lexicographic order of the sorted parameter names."""
    params = expr.parameters()
    domains = []
    for p in params:
        lows = [c.values[0] for c in expr.constraints if c.param == p and c.op == ">="]
        highs = [c.values[0] for c in expr.constraints if c.param == p and c.op == "<="]
        eqs = [c.values[0] for c in expr.constraints if c.param == p and c.op == "="]
        ins = [c.values for c in expr.constraints if c.param == p and c.op == "in"]
        if eqs:
            domain = [eqs[0]]
        elif ins:
            domain = sorted(set(ins[0]))
        else:
            lo = max(lows) if lows else 2
            hi = min(highs) if highs else cutoff
            domain = list(range(lo, min(hi, cutoff) + 1))
        domain = [v for v in domain if v <= cutoff]
        domain = [
            v
            for v in domain
            if all(c.admits(v) for c in expr.constraints if c.param == p)
        ]
        domains.append(domain)
    for combo in itertools.product(*domains):
        yield dict(zip(params, combo))
