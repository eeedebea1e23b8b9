"""AST, parser, printer, and validator for IF sentences in negation normal form.

The surface syntax is ASCII: `A`/`E` for the quantifiers, `(Ey/x z)` for a
slashed quantifier, `~` for negation on atoms, `&`/`|` for connectives, and
`\\/_i{f, g, ...}` for a disjunction that binds the choice variable `i` (its
branch index can then be hidden from later quantifiers by slashing `i`).
Negation is only admitted on atoms and equalities, so every parseable formula
is already in negation normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import ParseError

# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.fn
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


Term = Union[Var, App]


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class Equals:
    lhs: Term
    rhs: Term
    negated: bool = False


@dataclass(frozen=True)
class Connective:
    kind: str  # "and" | "or"
    choice_var: str | None
    branches: tuple["Formula", ...]

    def __post_init__(self):
        if self.kind not in ("and", "or"):
            raise ValueError(f"bad connective kind {self.kind!r}")
        if self.choice_var is not None and self.kind != "or":
            raise ValueError("choice variables are only supported on disjunctions")


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists"
    var: str
    slash: frozenset[str]
    body: "Formula"

    def __post_init__(self):
        if self.kind not in ("forall", "exists"):
            raise ValueError(f"bad quantifier kind {self.kind!r}")
        object.__setattr__(self, "slash", frozenset(self.slash))


Formula = Union[Atom, Equals, Connective, Quant]


@dataclass
class Vocabulary:
    """Relation and function symbols with arities; symbols must be unique.

    An arity of ``None`` (possible for relations loaded from an empty table)
    matches any argument count.
    """

    relations: dict[str, int | None] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.relations = dict(self.relations)
        self.functions = dict(self.functions)
        clash = set(self.relations) & set(self.functions)
        if clash:
            raise ValueError(f"symbols used as both relation and function: {sorted(clash)}")


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by `validate`."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


# ---------------------------------------------------------------------------
# Tokenizer

# Each match skips whitespace, then takes a choice, an identifier, a symbol
# (its own kind) or, as an error, any other character: `\S`, not `.`, so it
# never takes a space `\s*` gave back, and only trailing space goes unmatched.
_TOKEN_RE = re.compile(r"\s*(?:(\\/_)|([A-Za-z_][A-Za-z0-9_']*)|([()&|~=,{}/])|(\S))")
_KINDS = (None, "choice", "ident")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        if i == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        tokens.append((m[3] or _KINDS[i], m[i], m.start(i)))
    tokens.append(("eof", "", len(text)))
    return tokens


# How deeply formulas and terms may nest.  A parenthesis costs the parser five
# frames, so input at the cap stays near 500 of the default limit of 1000.
MAX_NESTING = 100

_QUANTIFIERS = {"A": "forall", "E": "exists"}
_FORMULA_STARTS = frozenset(("ident", "(", "~", "choice"))


def _one_level_down(production):
    """`production`, refusing to parse deeper than MAX_NESTING levels."""

    def nested(self: "_Parser", env):
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        try:
            return production(self, env)
        finally:
            self.depth -= 1

    return nested


class _Parser:
    def __init__(self, text: str, vocab: Vocabulary):
        tokens = _tokenize(text)
        # Three more `eof` sentinels let every lookahead index the list.
        self.tokens = tokens + tokens[-1:] * 3
        self.vocab = vocab
        self.pos = 0
        self.depth = 0

    # -- token plumbing

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} but found {tok[1]!r}", tok[2])
        return tok

    # -- quantifier heads, each decided by lookahead alone

    def _slashed_head(self) -> bool:
        """Whether `(Ey/...` or `(E y/...` starts here; no other input has a `/`."""
        t, i = self.tokens, self.pos
        if t[i][0] != "(" or t[i + 1][0] != "ident" or t[i + 1][1][0] not in "AE":
            return False
        return t[i + 2][0] == "/" or t[i + 2][0] == "ident" and t[i + 3][0] == "/"

    def _plain_head(self) -> bool:
        """Whether `Ax` or `A x` starts here, followed by the start of a formula,
        and is not a vocabulary symbol applied to an argument list."""
        t, i = self.tokens, self.pos
        word = t[i][1]
        if t[i][0] != "ident" or word[0] not in "AE" or self._applied(i):
            return False
        if len(word) == 1:
            if t[i + 1][0] != "ident":
                return False
            i += 1
        return t[i + 1][0] in _FORMULA_STARTS

    def _applied(self, i: int) -> bool:
        """Whether token i is a vocabulary symbol directly followed by a
        parenthesis that, up to its match, holds only identifiers, commas and
        parentheses, with no relation directly followed by `(`.  Such a
        parenthesis cannot be a formula, which needs an `=` or a relation's
        atom, and nothing else can be an argument list: so `Ay(x)` applies
        the relation `Ay` while `Ay (Ay(y))` and `Ay (y = y)` quantify `y`."""
        t, vocab = self.tokens, self.vocab
        if t[i + 1][0] != "(" or (t[i][1] not in vocab.relations and t[i][1] not in vocab.functions):
            return False
        depth = 0
        while True:
            i += 1
            kind = t[i][0]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if not depth:
                    return True
            elif kind == "ident":
                if t[i][1] in vocab.relations and t[i + 1][0] == "(":
                    return False
            elif kind != ",":
                return False

    # -- grammar; env maps identifier -> "var" | "choice"

    def sentence(self) -> Formula:
        f = self.formula({})
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return f

    @_one_level_down
    def formula(self, env: dict[str, str]) -> Formula:
        if self._slashed_head():
            self.next()
            head = self.next()[1]
            var = head[1:] or self.expect("ident")[1]
            self.expect("/")
            slash = self._identlist(env)
            self.expect(")")
        elif self._plain_head():
            head = self.next()[1]
            var = head[1:] or self.next()[1]
            slash = frozenset()
        else:
            return self.disj(env)
        return Quant(_QUANTIFIERS[head[0]], var, slash, self.formula({**env, var: "var"}))

    def _identlist(self, env) -> frozenset[str]:
        names = []
        while self.peek()[0] == "ident" or self.peek()[0] == "," and names:
            tok = self.next()
            if tok[0] == "ident":
                if tok[1] not in env:
                    raise ParseError(f"slashed identifier {tok[1]!r} is not in scope", tok[2])
                names.append(tok[1])
        if not names:
            raise ParseError("empty slash set", self.peek()[2])
        return frozenset(names)

    def disj(self, env) -> Formula:
        tok = self.peek()
        if tok[0] == "choice":
            self.next()
            cv = self.expect("ident")[1]
            if cv in env:
                raise ParseError(f"choice variable {cv!r} shadows a bound identifier", tok[2])
            self.expect("{")
            inner = {**env, cv: "choice"}
            branches = [self.formula(inner)]
            while self.peek()[0] == ",":
                self.next()
                branches.append(self.formula(inner))
            self.expect("}")
            if len(branches) < 2:
                raise ParseError("a choice disjunction needs at least two branches", tok[2])
            return Connective("or", cv, tuple(branches))
        branches = [self.conj(env)]
        while self.peek()[0] == "|":
            self.next()
            branches.append(self.conj(env))
        if len(branches) == 1:
            return branches[0]
        return Connective("or", None, tuple(branches))

    def conj(self, env) -> Formula:
        branches = [self.atomf(env)]
        while self.peek()[0] == "&":
            self.next()
            branches.append(self.atomf(env))
        if len(branches) == 1:
            return branches[0]
        return Connective("and", None, tuple(branches))

    def atomf(self, env) -> Formula:
        tok = self.peek()
        if tok[0] == "~":
            self.next()
            atom = self.atom(env)
            if isinstance(atom, Atom):
                return Atom(atom.rel, atom.args, negated=True)
            return Equals(atom.lhs, atom.rhs, negated=True)
        if tok[0] == "(":
            if self._slashed_head():
                return self.formula(env)
            self.next()
            f = self.formula(env)
            self.expect(")")
            return f
        return self.atom(env)

    def atom(self, env) -> Atom | Equals:
        tok = self.peek()
        if tok[0] != "ident":
            raise ParseError(f"expected an atom but found {tok[1]!r}", tok[2])
        if tok[1] in self.vocab.relations and self.tokens[self.pos + 1][0] == "(":
            self.pos += 2
            args = () if self.peek()[0] == ")" else self._termlist(env)
            self.expect(")")
            arity = self.vocab.relations[tok[1]]
            if arity is not None and len(args) != arity:
                raise ParseError(
                    f"relation {tok[1]!r} expects {arity} arguments, got {len(args)}", tok[2]
                )
            return Atom(tok[1], args)
        lhs = self.term(env)
        self.expect("=")
        rhs = self.term(env)
        return Equals(lhs, rhs)

    def _termlist(self, env) -> tuple[Term, ...]:
        terms = [self.term(env)]
        while self.peek()[0] == ",":
            self.next()
            terms.append(self.term(env))
        return tuple(terms)

    @_one_level_down
    def term(self, env) -> Term:
        tok = self.expect("ident")
        name = tok[1]
        if self.peek()[0] == "(" and name in self.vocab.functions:
            self.next()
            args = self._termlist(env)
            self.expect(")")
            arity = self.vocab.functions[name]
            if len(args) != arity:
                raise ParseError(
                    f"function {name!r} expects {arity} arguments, got {len(args)}", tok[2]
                )
            return App(name, args)
        if env.get(name) == "var":
            return Var(name)
        if env.get(name) == "choice":
            raise ParseError(f"choice variable {name!r} cannot occur in a term", tok[2])
        if name in self.vocab.functions:
            if self.vocab.functions[name] != 0:
                raise ParseError(f"function {name!r} needs arguments", tok[2])
            return App(name, ())
        if name in self.vocab.relations:
            raise ParseError(f"relation {name!r} used as a term", tok[2])
        raise ParseError(f"unbound variable or unknown symbol {name!r}", tok[2])


def parse(text: str, vocab: Vocabulary) -> Formula:
    """Parse a sentence; raises ParseError with the offending position."""
    return _Parser(text, vocab).sentence()


# ---------------------------------------------------------------------------
# Printing


def format_formula(f: Formula) -> str:
    """Render a formula in the surface syntax; inverse of `parse`."""
    if isinstance(f, Quant):
        letter = "A" if f.kind == "forall" else "E"
        if f.slash:
            head = f"({letter}{f.var}/{' '.join(sorted(f.slash))})"
        else:
            head = f"{letter}{f.var}"
        return f"{head} {format_formula(f.body)}"
    if isinstance(f, Atom):
        neg = "~" if f.negated else ""
        return f"{neg}{f.rel}({', '.join(str(a) for a in f.args)})"
    if isinstance(f, Equals):
        neg = "~" if f.negated else ""
        return f"{neg}{f.lhs} = {f.rhs}"
    if isinstance(f, Connective):
        if f.choice_var is not None:
            inner = ", ".join(format_formula(b) for b in f.branches)
            return f"\\/_{f.choice_var}{{{inner}}}"
        if f.kind == "or":
            return " | ".join(_wrap(b, allow_and=True) for b in f.branches)
        return " & ".join(_wrap(b, allow_and=False) for b in f.branches)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, allow_and: bool) -> str:
    text = format_formula(f)
    if isinstance(f, (Atom, Equals)):
        return text
    if isinstance(f, Connective) and f.choice_var is not None:
        return text
    if isinstance(f, Connective) and f.kind == "and" and allow_and:
        return text
    return f"({text})"


# ---------------------------------------------------------------------------
# Validation


def validate(f: Formula, vocab: Vocabulary) -> list[Violation]:
    """All invariant violations of `f` as a sentence over `vocab`; [] iff well formed."""
    out: list[Violation] = []
    _validate(f, vocab, {}, out)
    return out


def _validate(f: Formula, vocab: Vocabulary, env: dict[str, str], out: list[Violation]) -> None:
    if isinstance(f, Quant):
        for name in f.slash:
            if name not in env:
                out.append(
                    Violation(
                        "unbound-slash-variable",
                        f"slash set of {f.kind} {f.var} mentions {name!r}, which is not in scope",
                    )
                )
        _validate(f.body, vocab, {**env, f.var: "var"}, out)
        return
    if isinstance(f, Connective):
        inner = env
        if f.choice_var is not None:
            if f.choice_var in env:
                out.append(
                    Violation(
                        "shadowed-choice-var",
                        f"choice variable {f.choice_var!r} shadows a bound identifier",
                    )
                )
            inner = {**env, f.choice_var: "choice"}
            if not _slash_mentions(f.branches, f.choice_var):
                out.append(
                    Violation(
                        "unused-choice-var",
                        f"choice variable {f.choice_var!r} is not mentioned in any slash set",
                    )
                )
        if len(f.branches) < 2 and f.choice_var is not None:
            out.append(Violation("degenerate-choice", "choice disjunction with fewer than 2 branches"))
        for b in f.branches:
            _validate(b, vocab, inner, out)
        return
    if isinstance(f, Atom):
        arity = vocab.relations.get(f.rel, -1)
        if f.rel not in vocab.relations:
            out.append(Violation("unknown-symbol", f"relation {f.rel!r} is not in the vocabulary"))
        elif arity is not None and len(f.args) != arity:
            out.append(
                Violation(
                    "arity-mismatch",
                    f"relation {f.rel!r} has arity {arity} but got {len(f.args)} arguments",
                )
            )
        for t in f.args:
            _validate_term(t, vocab, env, out)
        return
    if isinstance(f, Equals):
        _validate_term(f.lhs, vocab, env, out)
        _validate_term(f.rhs, vocab, env, out)
        return
    out.append(Violation("bad-node", f"not a formula node: {f!r}"))


def _validate_term(t: Term, vocab: Vocabulary, env: dict[str, str], out: list[Violation]) -> None:
    if isinstance(t, Var):
        binding = env.get(t.name)
        if binding is None:
            out.append(Violation("unbound-variable", f"variable {t.name!r} is not bound"))
        elif binding == "choice":
            out.append(
                Violation("choice-var-in-term", f"choice variable {t.name!r} occurs in a term")
            )
        return
    if isinstance(t, App):
        if t.fn not in vocab.functions:
            out.append(Violation("unknown-symbol", f"function {t.fn!r} is not in the vocabulary"))
        elif len(t.args) != vocab.functions[t.fn]:
            out.append(
                Violation(
                    "arity-mismatch",
                    f"function {t.fn!r} has arity {vocab.functions[t.fn]} "
                    f"but got {len(t.args)} arguments",
                )
            )
        for a in t.args:
            _validate_term(a, vocab, env, out)
        return
    out.append(Violation("bad-node", f"not a term node: {t!r}"))


def _slash_mentions(fs: Iterable[Formula], name: str) -> bool:
    for f in fs:
        if isinstance(f, Quant):
            if name in f.slash or _slash_mentions([f.body], name):
                return True
        elif isinstance(f, Connective):
            if _slash_mentions(f.branches, name):
                return True
    return False


def subformulas(f: Formula):
    """Yield (path, node) pairs in pre-order; paths index into quantifier bodies and branches."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Quant):
            stack.append((path + (0,), node.body))
        elif isinstance(node, Connective):
            for i in range(len(node.branches) - 1, -1, -1):
                stack.append((path + (i,), node.branches[i]))
