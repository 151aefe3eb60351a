"""Line-oriented definition files for algebras, modules and cochains.

The grammar is deliberately flat: one declaration per line, linear
combinations only, comments with ``#``.

    algebra <name> over GF(<p>)
    basis <id> <id> ...
    bracket [<id>,<id>] = <int>*<id>+<int>*<id>...   (or 0)
    pmap <id>^[p] = <int>*<id>+...                   (or 0)
    module <name> dim <m>
    action <id> = [[1,0;0,1]]                       (',' between entries, ';' between rows)

A cocycle file (parse_cocycle) holds ``phi`` lines, read like bracket
lines, and ``omega <id> = ...`` lines, read like pmap lines.

Undeclared brackets are zero.  Every basis element needs an explicit
pmap line (parse with require_pmap=False only to feed the p-operator
inference command).  Parsing canonicalizes: coefficients are reduced
mod p, terms are combined and sorted by basis position, zero brackets
are dropped, and reversed bracket keys are normalized with a sign, so
emit followed by parse is the identity on the model.

Lines are read token by token with patterns compiled once at import,
except the matrix literal of an ``action`` line: one compiled match
accepts a whole well-formed m × m literal, whose entries are then split
off with str.split and read with int.  A literal the match rejects, or
one of the wrong shape, goes through the token walk, the only source of
DslSyntaxError, so the reported line, column and expected token are
those of the walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .field import NonPrimeModulus  # noqa: F401  (re-exported: parse raises it)
from .gmod import RestrictedModule
from .liealg import (RestrictedLieAlgebra, VerificationFailed, _check_modulus, verify_restricted,
                     witt_algebra)
from .linalg import UsageError, _failing

# Token patterns, compiled once; _Cursor matches literal tokens as strings.
_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")
_KEYWORD = re.compile(r"[a-z]+")
_BLANKS = re.compile(r"[ \t]*")
# A whole matrix literal from the cursor to the end of the line, with the
# blanks _Cursor skips: group 1 holds the entries, ',' between the entries
# of a row and ';' between rows.
_MATRIX = re.compile(r"[ \t]*\[\[([ \t]*-?[0-9]+[ \t]*(?:[,;][ \t]*-?[0-9]+[ \t]*)*)\]\][ \t]*")


class DslSyntaxError(UsageError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class DuplicateLabel(UsageError):
    pass


class UnresolvedReference(UsageError):
    pass


@dataclass
class ModuleBlock:
    name: str
    dim: int
    actions: dict[str, tuple] = field(default_factory=dict)


@dataclass
class AlgebraFile:
    name: str
    p: int
    basis: list[str]
    brackets: dict[tuple[str, str], tuple]
    pmap: dict[str, tuple]
    modules: list[ModuleBlock]


class _Cursor:
    """Single-line scanner that reports 1-based columns on failure.

    A token is a compiled pattern or a literal string; blanks (space and
    tab) before each token are skipped.
    """

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def _skip_ws(self) -> None:
        self.pos = _BLANKS.match(self.text, self.pos).end()

    def _match(self, token: re.Pattern | str) -> str | None:
        self._skip_ws()
        if isinstance(token, str):
            return token if self.text.startswith(token, self.pos) else None
        m = token.match(self.text, self.pos)
        return None if m is None else m.group()

    def peek(self, token: re.Pattern | str) -> bool:
        return self._match(token) is not None

    def expect(self, token: re.Pattern | str, expected: str) -> str:
        found = self._match(token)
        if found is None:
            raise DslSyntaxError(self.lineno, self.pos + 1, expected)
        self.pos += len(found)
        return found

    def done(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            raise DslSyntaxError(self.lineno, self.pos + 1, "end of line")


def _parse_terms(cur: _Cursor) -> list[tuple[int, str]]:
    first = cur.expect(_INT, "integer coefficient or 0")
    if not cur.peek("*"):
        if first == "0":
            cur.done()
            return []
        raise DslSyntaxError(cur.lineno, cur.pos + 1, "'*' after coefficient")
    terms = []
    cur.expect("*", "'*'")
    terms.append((int(first), cur.expect(_ID, "basis label")))
    while cur.peek("+"):
        cur.expect("+", "'+'")
        coeff = cur.expect(_INT, "integer coefficient")
        cur.expect("*", "'*'")
        terms.append((int(coeff), cur.expect(_ID, "basis label")))
    cur.done()
    return terms


def _canon_terms(terms, p: int, order: dict[str, int], where: str) -> tuple:
    acc: dict[str, int] = {}
    for coeff, label in terms:
        if label not in order:
            raise UnresolvedReference(f"{where}: unknown basis label {label!r}")
        acc[label] = (acc.get(label, 0) + coeff) % p
    out = [(v, k) for k, v in acc.items() if v]
    out.sort(key=lambda t: order[t[1]])
    return tuple(out)


def _parse_matrix(cur: _Cursor, m: int) -> tuple:
    """The m × m matrix literal from the cursor to the end of the line.

    A well-formed literal of the right shape is read in one _MATRIX match
    and split into its entries; any other line goes through the token walk
    below, which raises the DslSyntaxError that locates its first fault.
    """
    whole = _MATRIX.fullmatch(cur.text, cur.pos)
    if whole is not None:
        rows = [row.split(",") for row in whole[1].split(";")]
        if len(rows) == m and all(len(row) == m for row in rows):
            return tuple(tuple(map(int, row)) for row in rows)
    cur.expect("[[", "'[['")
    rows = []
    while True:
        row = [int(cur.expect(_INT, "matrix entry"))]
        while cur.peek(","):
            cur.expect(",", "','")
            row.append(int(cur.expect(_INT, "matrix entry")))
        if len(row) != m:
            raise DslSyntaxError(cur.lineno, cur.pos + 1, f"row of {m} entries")
        rows.append(tuple(row))
        if not cur.peek(";"):
            break
        cur.expect(";", "';'")
    cur.expect("]]", "']]'")
    cur.done()
    if len(rows) != m:
        raise DslSyntaxError(cur.lineno, cur.pos + 1, f"{m} matrix rows")
    return tuple(rows)


def _lines(text: str):
    """A cursor on each line of text that holds more than blanks and a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, _Cursor(line, lineno)


def _read_pair(cur: _Cursor, kw: str, p: int, order: dict[str, int], seen) -> tuple:
    """The rest of a ``[a,b] = terms`` line (bracket, phi): the key in basis
    order and its canonical terms, negated for a reversed pair."""
    cur.expect("[", "'['")
    a = cur.expect(_ID, "basis label")
    cur.expect(",", "','")
    b = cur.expect(_ID, "basis label")
    cur.expect("]", "']'")
    cur.expect("=", "'='")
    terms = _canon_terms(_parse_terms(cur), p, order, f"{kw} [{a},{b}]")
    for lab in (a, b):
        if lab not in order:
            raise UnresolvedReference(f"{kw} uses unknown label {lab!r}")
    if order[a] > order[b]:
        a, b = b, a
        terms = tuple(((-c) % p, l) for c, l in terms)
    if (a, b) in seen:
        raise DuplicateLabel(f"{kw} [{a},{b}] declared twice")
    return (a, b), terms


def _read_value(cur: _Cursor, kw: str, p: int, order: dict[str, int], seen) -> tuple:
    """The rest of an ``a = terms`` line (omega; pmap writes ``a^[p] =``):
    the label and its canonical terms."""
    a = cur.expect(_ID, "basis label")
    if kw == "pmap":
        cur.expect("^[p]", "'^[p]'")
    cur.expect("=", "'='")
    if a not in order:
        raise UnresolvedReference(f"{kw} uses unknown label {a!r}")
    if a in seen:
        raise DuplicateLabel(f"{kw} for {a!r} declared twice")
    return a, _canon_terms(_parse_terms(cur), p, order, f"{kw} {a}")


def parse(text: str, require_pmap: bool = True) -> AlgebraFile:
    """Parse and canonicalize a definition file.

    Raises DslSyntaxError with line/column/expected-token on malformed
    lines, NonPrimeModulus, ModulusTooLarge, DuplicateLabel, or UnresolvedReference.
    """
    name = None
    p = None
    basis: list[str] = []
    order: dict[str, int] = {}
    brackets: dict[tuple[str, str], tuple] = {}
    pmap: dict[str, tuple] = {}
    modules: list[ModuleBlock] = []
    current: ModuleBlock | None = None
    for lineno, cur in _lines(text):
        kw = cur.expect(_KEYWORD, "keyword (algebra/basis/bracket/pmap/module/action)")
        if name is None and kw != "algebra":
            raise DslSyntaxError(lineno, 1, "'algebra' as the first declaration")
        if not basis and kw in ("bracket", "pmap", "module"):
            raise DslSyntaxError(lineno, 1, f"'basis' before '{kw}'")
        if current is not None and kw in ("bracket", "pmap"):
            raise DslSyntaxError(lineno, 1, f"'action' ({kw} lines precede modules)")
        if kw == "algebra":
            if name is not None:
                raise DuplicateLabel("algebra declared twice")
            name = cur.expect(_ID, "algebra name")
            cur.expect("over", "'over'")
            cur.expect("GF(", "'GF('")
            p = int(cur.expect(_INT, "prime modulus"))
            cur.expect(")", "')'")
            cur.done()
            _check_modulus(p)
        elif kw == "basis":
            if basis:
                raise DuplicateLabel("basis declared twice")
            while cur.peek(_ID):
                label = cur.expect(_ID, "basis label")
                if label in order:
                    raise DuplicateLabel(f"basis label {label!r} repeated")
                order[label] = len(basis)
                basis.append(label)
            cur.done()
            if not basis:
                raise DslSyntaxError(lineno, cur.pos + 1, "at least one basis label")
        elif kw == "bracket":
            key, terms = _read_pair(cur, kw, p, order, brackets)
            brackets[key] = terms
        elif kw == "pmap":
            a, terms = _read_value(cur, kw, p, order, pmap)
            pmap[a] = terms
        elif kw == "module":
            mname = cur.expect(_ID, "module name")
            cur.expect("dim", "'dim'")
            m = int(cur.expect(_INT, "positive dimension"))
            cur.done()
            if m <= 0:
                raise DslSyntaxError(lineno, 1, "positive dimension")
            if any(mb.name == mname for mb in modules) or mname in ("trivial", "adjoint"):
                raise DuplicateLabel(f"module name {mname!r} already taken")
            current = ModuleBlock(mname, m)
            modules.append(current)
        elif kw == "action":
            if current is None:
                raise DslSyntaxError(lineno, 1, "'module' before 'action'")
            a = cur.expect(_ID, "basis label")
            cur.expect("=", "'='")
            if a not in order:
                raise UnresolvedReference(f"action uses unknown label {a!r}")
            if a in current.actions:
                raise DuplicateLabel(f"action for {a!r} declared twice in {current.name!r}")
            rows = _parse_matrix(cur, current.dim)
            current.actions[a] = tuple(tuple(v % p for v in row) for row in rows)
        else:
            raise DslSyntaxError(lineno, 1,
                                 "keyword (algebra/basis/bracket/pmap/module/action)")
    if name is None or not basis:
        keyword = "'algebra'" if name is None else "'basis'"
        raise DslSyntaxError(max(len(text.splitlines()), 1), 1, f"{keyword} declaration")
    if require_pmap:
        missing = [b for b in basis if b not in pmap]
        if missing:
            raise UnresolvedReference(
                f"no pmap declared for {missing[0]!r} (every basis element needs one)"
            )
    for mb in modules:
        absent = [b for b in basis if b not in mb.actions]
        if absent:
            raise UnresolvedReference(
                f"module {mb.name!r} has no action for {absent[0]!r}"
            )
    brackets = {key: terms for key, terms in brackets.items() if terms}
    return AlgebraFile(name, p, basis, brackets, pmap, modules)


def _format_terms(terms) -> str:
    if not terms:
        return "0"
    return "+".join(f"{c}*{l}" for c, l in terms)


def emit(af: AlgebraFile) -> str:
    """Canonical text form; parse(emit(af)) == af for canonical af."""
    order = {b: i for i, b in enumerate(af.basis)}
    out = [f"algebra {af.name} over GF({af.p})"]
    out.append("basis " + " ".join(af.basis))
    for a, b in sorted(af.brackets, key=lambda k: (order[k[0]], order[k[1]])):
        out.append(f"bracket [{a},{b}] = {_format_terms(af.brackets[(a, b)])}")
    for a in af.basis:
        if a in af.pmap:
            out.append(f"pmap {a}^[p] = {_format_terms(af.pmap[a])}")
    for mb in af.modules:
        out.append(f"module {mb.name} dim {mb.dim}")
        for a in af.basis:
            rows = ";".join(",".join(str(v) for v in row) for row in mb.actions[a])
            out.append(f"action {a} = [[{rows}]]")
    return "\n".join(out) + "\n"


def _pair_array(pairs: dict, order: dict[str, int], p: int) -> np.ndarray:
    """The n × n × n array of ``[a,b] = terms`` entries, negated on [b,a]."""
    n = len(order)
    c = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), terms in pairs.items():
        i, j = order[a], order[b]
        for coeff, label in terms:
            c[i, j, order[label]] = coeff % p
        if i != j:
            c[j, i] = (-c[i, j]) % p
    return c


def _row_array(values: dict, order: dict[str, int], p: int) -> np.ndarray:
    """The n × n array whose row a holds the ``a = terms`` entry."""
    n = len(order)
    rows = np.zeros((n, n), dtype=np.int64)
    for a, terms in values.items():
        for coeff, label in terms:
            rows[order[a], order[label]] = coeff % p
    return rows


def _terms(row: np.ndarray, labels: list[str]) -> tuple:
    """The canonical terms of one array row: the inverse of the two above."""
    return tuple((v, labels[k]) for k, v in enumerate(row.tolist()) if v)


def structure_constants(af: AlgebraFile) -> np.ndarray:
    return _pair_array(af.brackets, {b: i for i, b in enumerate(af.basis)}, af.p)


def p_map_matrix(af: AlgebraFile) -> np.ndarray:
    missing = [b for b in af.basis if b not in af.pmap]
    if missing:
        raise UnresolvedReference(f"no pmap declared for {missing[0]!r}")
    return _row_array(af.pmap, {b: i for i, b in enumerate(af.basis)}, af.p)


def build(af: AlgebraFile, check: bool = True):
    """Construct the algebra and its declared modules.

    With check, a file that parses but violates antisymmetry, Jacobi,
    the bracket law of a p-map (verify_restricted) or the module laws
    fails here with VerificationFailed.
    """
    L = RestrictedLieAlgebra(af.p, structure_constants(af), p_map_matrix(af), check=False)
    if check:
        report = verify_restricted(L)
        axioms = report["checks"][0]  # the constructor's check, run here only
        if not axioms["pass"]:
            raise VerificationFailed(axioms["counterexample"])
        failing = _failing(report)
        if failing is not None:
            raise VerificationFailed(f"not a restricted Lie algebra: {failing}")
    modules = {}
    for mb in af.modules:
        rho = np.array([mb.actions[a] for a in af.basis], dtype=np.int64)
        modules[mb.name] = RestrictedModule(L, rho, check=check)
    return L, modules


def from_algebra(L: RestrictedLieAlgebra, name: str,
                 labels: list[str] | None = None) -> AlgebraFile:
    """Canonical AlgebraFile for an existing algebra."""
    n, p = L.n, L.p
    labels = labels or [f"e{i}" for i in range(n)]
    if len(labels) != n or len(set(labels)) != n:
        raise DuplicateLabel("need n distinct labels")
    brackets = {(labels[i], labels[j]): terms for i in range(n) for j in range(i + 1, n)
                if (terms := _terms(L.c[i, j], labels))}
    pmap = {labels[i]: _terms(L.pi[i], labels) for i in range(n)}
    return AlgebraFile(name, p, list(labels), brackets, pmap, [])


def witt_file(p: int) -> AlgebraFile:
    L, _ = witt_algebra(p)
    return from_algebra(L, f"witt{p}", [f"D{i}" for i in range(p)])


def parse_cocycle(text: str, af: AlgebraFile):
    """Degree-2 cochain file with adjoint coefficients: the (phi, omega)
    arrays shaped (n,n,n) and (n,n); undeclared entries are zero and a
    phi entry on the diagonal must be 0."""
    order = {b: i for i, b in enumerate(af.basis)}
    phi: dict[tuple[str, str], tuple] = {}
    omega: dict[str, tuple] = {}
    for lineno, cur in _lines(text):
        kw = cur.expect(_KEYWORD, "keyword (phi/omega)")
        if kw == "phi":
            key, terms = _read_pair(cur, kw, af.p, order, phi)
            if key[0] == key[1] and terms:
                raise DslSyntaxError(lineno, 1, "zero entry on the diagonal")
            phi[key] = terms
        elif kw == "omega":
            a, terms = _read_value(cur, kw, af.p, order, omega)
            omega[a] = terms
        else:
            raise DslSyntaxError(lineno, 1, "keyword (phi/omega)")
    return _pair_array(phi, order, af.p), _row_array(omega, order, af.p)
