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
from itertools import islice
from operator import itemgetter
from typing import Union

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

# A token is a choice, an identifier, a symbol or, as an error, any other
# character but a space, which no alternative takes, so `findall` skips it.
_TOKEN_RE = re.compile(r"\\/_|[A-Za-z_][A-Za-z0-9_']*|[()&|~=,{}/]|\S")
# Each token's kind, by its first character: a symbol is its own kind.  A
# lone backslash, not a choice, is the one other token starting with one.
_KINDS = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident") | {c: c for c in "()&|~=,{}/"}
_KINDS["\\"] = "choice"


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of `text`, ending with `eof`;
    `_token_start` gives a token's position."""
    texts = _TOKEN_RE.findall(text)
    kinds = list(map(_KINDS.get, map(itemgetter(0), texts)))
    if None in kinds or "\\" in texts:
        i = next(i for i, k in enumerate(kinds) if k is None or texts[i] == "\\")
        raise ParseError(f"unexpected character {texts[i]!r}", _token_start(text, i))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _token_start(text: str, index: int) -> int:
    """The position of token `index` of `text`; `eof` is at the end."""
    m = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


# How deeply formulas and terms may nest.  A parenthesis costs the parser four
# frames, so input at the cap stays near 400 of the default limit of 1000.
MAX_NESTING = 100

_QUANTIFIERS = {"A": "forall", "E": "exists"}
_FORMULA_STARTS = frozenset(("ident", "(", "~", "choice"))


class _Parser:
    """Recursive descent over parallel token lists; `depth` counts the
    formulas and terms being parsed, up to MAX_NESTING."""

    def __init__(self, text: str, vocab: Vocabulary):
        kinds, texts = _tokenize(text)
        # Three more `eof` sentinels let every lookahead index the lists.
        self.kinds = kinds + ["eof"] * 3
        self.texts = texts + [""] * 3
        self.text = text
        self.vocab = vocab
        self.pos = 0
        self.depth = 0

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, _token_start(self.text, i))

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be a `kind`."""
        i = self.pos
        if self.kinds[i] != kind:
            raise self.error(f"expected {kind!r} but found {self.texts[i]!r}", i)
        self.pos = i + 1
        return self.texts[i]

    def deeper(self) -> None:
        """Enter one more formula or term, refused past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise self.error(f"formula nested deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1

    # -- quantifier heads, each decided by lookahead alone

    def _slashed_head(self, i: int) -> bool:
        """Whether `(Ey/...` or `(E y/...` starts at token i; no other input has a `/`."""
        k = self.kinds
        if k[i] != "(" or k[i + 1] != "ident" or self.texts[i + 1][0] not in "AE":
            return False
        return k[i + 2] == "/" or k[i + 2] == "ident" and k[i + 3] == "/"

    def _plain_head(self, i: int) -> bool:
        """Whether `Ax` or `A x` starts at token i, followed by the start of a
        formula, and is not a vocabulary symbol applied to an argument list."""
        k, word = self.kinds, self.texts[i]
        if k[i] != "ident" or word[0] not in "AE" or self._applied(i):
            return False
        if len(word) == 1:
            if k[i + 1] != "ident":
                return False
            i += 1
        return k[i + 1] in _FORMULA_STARTS

    def _applied(self, i: int) -> bool:
        """Whether token i is a vocabulary symbol directly followed by a
        parenthesis that, up to its match, holds only identifiers, commas and
        parentheses, with no relation directly followed by `(`.  Such a
        parenthesis cannot be a formula, which needs an `=` or a relation's
        atom, and nothing else can be an argument list: so `Ay(x)` applies
        the relation `Ay` while `Ay (Ay(y))` and `Ay (y = y)` quantify `y`."""
        k, t, vocab = self.kinds, self.texts, self.vocab
        if k[i + 1] != "(" or (t[i] not in vocab.relations and t[i] not in vocab.functions):
            return False
        depth = 0
        while True:
            i += 1
            kind = k[i]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if not depth:
                    return True
            elif kind == "ident":
                if t[i] in vocab.relations and k[i + 1] == "(":
                    return False
            elif kind != ",":
                return False

    # -- grammar; env maps identifier -> "var" | "choice"

    def sentence(self) -> Formula:
        f = self.formula({})
        if self.kinds[self.pos] != "eof":
            raise self.error(f"trailing input {self.texts[self.pos]!r}", self.pos)
        return f

    def formula(self, env: dict[str, str]) -> Formula:
        self.deeper()
        i = self.pos
        if self._slashed_head(i):
            head = self.texts[i + 1]
            self.pos = i + 2
            var = head[1:] or self.expect("ident")
            self.expect("/")
            slash = self._identlist(env)
            self.expect(")")
        elif self._plain_head(i):
            head = self.texts[i]
            var = head[1:]
            if not var:
                i += 1
                var = self.texts[i]
            self.pos = i + 1
            slash = frozenset()
        else:
            f = self.disj(env)
            self.depth -= 1
            return f
        f = Quant(_QUANTIFIERS[head[0]], var, slash, self.formula({**env, var: "var"}))
        self.depth -= 1
        return f

    def _identlist(self, env) -> frozenset[str]:
        k, t, i = self.kinds, self.texts, self.pos
        names = []
        while k[i] == "ident" or k[i] == "," and names:
            if k[i] == "ident":
                if t[i] not in env:
                    raise self.error(f"slashed identifier {t[i]!r} is not in scope", i)
                names.append(t[i])
            i += 1
        if not names:
            raise self.error("empty slash set", i)
        self.pos = i
        return frozenset(names)

    def disj(self, env) -> Formula:
        k, i = self.kinds, self.pos
        if k[i] == "choice":
            self.pos = i + 1
            cv = self.expect("ident")
            if cv in env:
                raise self.error(f"choice variable {cv!r} shadows a bound identifier", i)
            self.expect("{")
            inner = {**env, cv: "choice"}
            branches = [self.formula(inner)]
            while k[self.pos] == ",":
                self.pos += 1
                branches.append(self.formula(inner))
            self.expect("}")
            if len(branches) < 2:
                raise self.error("a choice disjunction needs at least two branches", i)
            return Connective("or", cv, tuple(branches))
        branches = [self.conj(env)]
        while k[self.pos] == "|":
            self.pos += 1
            branches.append(self.conj(env))
        if len(branches) == 1:
            return branches[0]
        return Connective("or", None, tuple(branches))

    def conj(self, env) -> Formula:
        k = self.kinds
        branches = [self.atomf(env)]
        while k[self.pos] == "&":
            self.pos += 1
            branches.append(self.atomf(env))
        if len(branches) == 1:
            return branches[0]
        return Connective("and", None, tuple(branches))

    def atomf(self, env) -> Formula:
        kind = self.kinds[self.pos]
        if kind == "~":
            self.pos += 1
            atom = self.atom(env)
            if isinstance(atom, Atom):
                return Atom(atom.rel, atom.args, negated=True)
            return Equals(atom.lhs, atom.rhs, negated=True)
        if kind == "(":
            if self._slashed_head(self.pos):
                return self.formula(env)
            self.pos += 1
            f = self.formula(env)
            self.expect(")")
            return f
        return self.atom(env)

    def atom(self, env) -> Atom | Equals:
        i = self.pos
        name = self.texts[i]
        if self.kinds[i] != "ident":
            raise self.error(f"expected an atom but found {name!r}", i)
        relations = self.vocab.relations
        if name in relations and self.kinds[i + 1] == "(":
            self.pos = i + 2
            args = () if self.kinds[i + 2] == ")" else self._termlist(env)
            self.expect(")")
            arity = relations[name]
            if arity is not None and len(args) != arity:
                raise self.error(f"relation {name!r} expects {arity} arguments, got {len(args)}", i)
            return Atom(name, args)
        lhs = self.term(env)
        self.expect("=")
        return Equals(lhs, self.term(env))

    def _termlist(self, env) -> tuple[Term, ...]:
        k = self.kinds
        terms = [self.term(env)]
        while k[self.pos] == ",":
            self.pos += 1
            terms.append(self.term(env))
        return tuple(terms)

    def term(self, env) -> Term:
        self.deeper()
        i = self.pos
        name = self.expect("ident")
        functions = self.vocab.functions
        if self.kinds[i + 1] == "(" and name in functions:
            self.pos = i + 2
            args = self._termlist(env)
            self.expect(")")
            self.depth -= 1
            if len(args) != functions[name]:
                raise self.error(f"function {name!r} expects {functions[name]} arguments, got {len(args)}", i)
            return App(name, args)
        self.depth -= 1
        binding = env.get(name)
        if binding == "var":
            return Var(name)
        if binding == "choice":
            raise self.error(f"choice variable {name!r} cannot occur in a term", i)
        if name in functions:
            if functions[name] != 0:
                raise self.error(f"function {name!r} needs arguments", i)
            return App(name, ())
        if name in self.vocab.relations:
            raise self.error(f"relation {name!r} used as a term", i)
        raise self.error(f"unbound variable or unknown symbol {name!r}", i)


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
    """All invariant violations of `f` as a sentence over `vocab`, found in
    one walk; [] iff well formed.  A connective is a move, so one of fewer
    than two branches is refused."""
    out: list[Violation] = []
    _validate(f, vocab, {}, out, set())
    return out


def _validate(f: Formula, vocab: Vocabulary, env: dict[str, str], out: list[Violation], slashed: set[str]) -> None:
    """Append the violations of `f` to `out` and the names its slash sets
    mention to `slashed`."""
    if isinstance(f, Quant):
        for name in f.slash:
            if name not in env:
                out.append(
                    Violation(
                        "unbound-slash-variable",
                        f"slash set of {f.kind} {f.var} mentions {name!r}, which is not in scope",
                    )
                )
        slashed |= f.slash
        _validate(f.body, vocab, {**env, f.var: "var"}, out, slashed)
        return
    if isinstance(f, Connective):
        cv, inner, below = f.choice_var, env, slashed
        if cv is not None:
            if cv in env:
                out.append(Violation("shadowed-choice-var", f"choice variable {cv!r} shadows a bound identifier"))
            inner, below = {**env, cv: "choice"}, set()
        unused_at = len(out)  # reported before the branches' violations, once they are walked
        if len(f.branches) < 2:
            what = f"{f.kind!r} connective" if cv is None else "choice disjunction"
            out.append(Violation("degenerate-connective", f"{what} with fewer than 2 branches"))
        for branch in f.branches:
            _validate(branch, vocab, inner, out, below)
        if cv is not None:
            if cv not in below:
                out.insert(
                    unused_at,
                    Violation("unused-choice-var", f"choice variable {cv!r} is not mentioned in any slash set"),
                )
            slashed |= below
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
