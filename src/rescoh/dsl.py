"""Line-oriented definition files for algebras, modules and cochains.

The grammar is deliberately flat: one declaration per line, linear
combinations only, comments with ``#``.

    algebra <name> over GF(<p>)
    basis <id> <id> ...
    bracket [<id>,<id>] = <int>*<id>+<int>*<id>...   (or 0)
    pmap <id>^[p] = <int>*<id>+...                   (or 0)
    module <name> dim <m>
    action <id> = [[1,0;0,1]]                       (',' between entries, ';' between rows)

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
from .liealg import RestrictedLieAlgebra, VerificationFailed, _check_modulus, verify_restricted
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
        if cur.peek(";"):
            cur.expect(";", "';'")
            continue
        break
    cur.expect("]]", "']]'")
    cur.done()
    if len(rows) != m:
        raise DslSyntaxError(cur.lineno, cur.pos + 1, f"{m} matrix rows")
    return tuple(rows)


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
    declared_brackets: set[tuple[str, str]] = set()
    pmap: dict[str, tuple] = {}
    modules: list[ModuleBlock] = []
    current: ModuleBlock | None = None
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)
        kw = cur.expect(_KEYWORD, "keyword (algebra/basis/bracket/pmap/module/action)")
        if name is None and kw != "algebra":
            raise DslSyntaxError(lineno, 1, "'algebra' as the first declaration")
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
            if not basis:
                raise DslSyntaxError(lineno, 1, "'basis' before 'bracket'")
            if current is not None:
                raise DslSyntaxError(lineno, 1, "'action' (bracket lines precede modules)")
            cur.expect("[", "'['")
            a = cur.expect(_ID, "basis label")
            cur.expect(",", "','")
            b = cur.expect(_ID, "basis label")
            cur.expect("]", "']'")
            cur.expect("=", "'='")
            terms = _canon_terms(_parse_terms(cur), p, order,
                                 f"bracket [{a},{b}]")
            for lab in (a, b):
                if lab not in order:
                    raise UnresolvedReference(f"bracket uses unknown label {lab!r}")
            key, sign = ((a, b), 1) if order[a] <= order[b] else ((b, a), -1)
            if key in declared_brackets:
                raise DuplicateLabel(f"bracket [{key[0]},{key[1]}] declared twice")
            declared_brackets.add(key)
            if sign < 0:
                terms = tuple(((-c) % p, l) for c, l in terms)
            if terms:
                brackets[key] = terms
        elif kw == "pmap":
            if not basis:
                raise DslSyntaxError(lineno, 1, "'basis' before 'pmap'")
            if current is not None:
                raise DslSyntaxError(lineno, 1, "'action' (pmap lines precede modules)")
            a = cur.expect(_ID, "basis label")
            cur.expect("^[p]", "'^[p]'")
            cur.expect("=", "'='")
            if a not in order:
                raise UnresolvedReference(f"pmap uses unknown label {a!r}")
            if a in pmap:
                raise DuplicateLabel(f"pmap for {a!r} declared twice")
            pmap[a] = _canon_terms(_parse_terms(cur), p, order, f"pmap {a}")
        elif kw == "module":
            if not basis:
                raise DslSyntaxError(lineno, 1, "'basis' before 'module'")
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
    if name is None:
        raise DslSyntaxError(max(last_line, 1), 1, "'algebra' declaration")
    if not basis:
        raise DslSyntaxError(max(last_line, 1), 1, "'basis' declaration")
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


def structure_constants(af: AlgebraFile) -> np.ndarray:
    n = len(af.basis)
    order = {b: i for i, b in enumerate(af.basis)}
    c = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), terms in af.brackets.items():
        i, j = order[a], order[b]
        for coeff, label in terms:
            c[i, j, order[label]] = coeff % af.p
        if i != j:
            c[j, i] = (-c[i, j]) % af.p
    return c


def p_map_matrix(af: AlgebraFile) -> np.ndarray:
    n = len(af.basis)
    order = {b: i for i, b in enumerate(af.basis)}
    missing = [b for b in af.basis if b not in af.pmap]
    if missing:
        raise UnresolvedReference(f"no pmap declared for {missing[0]!r}")
    pi = np.zeros((n, n), dtype=np.int64)
    for a, terms in af.pmap.items():
        for coeff, label in terms:
            pi[order[a], order[label]] = coeff % af.p
    return pi


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
        rho = np.zeros((len(af.basis), mb.dim, mb.dim), dtype=np.int64)
        for a, rows in mb.actions.items():
            rho[af.basis.index(a)] = np.array(rows, dtype=np.int64)
        modules[mb.name] = RestrictedModule(L, rho, check=check)
    return L, modules


def from_algebra(L: RestrictedLieAlgebra, name: str,
                 labels: list[str] | None = None) -> AlgebraFile:
    """Canonical AlgebraFile for an existing algebra."""
    n, p = L.n, L.p
    labels = labels or [f"e{i}" for i in range(n)]
    if len(labels) != n or len(set(labels)) != n:
        raise DuplicateLabel("need n distinct labels")
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = tuple(
                (int(L.c[i, j, k]), labels[k]) for k in range(n) if L.c[i, j, k]
            )
            if terms:
                brackets[(labels[i], labels[j])] = terms
    pmap = {
        labels[i]: tuple((int(L.pi[i, k]), labels[k]) for k in range(n) if L.pi[i, k])
        for i in range(n)
    }
    return AlgebraFile(name, p, list(labels), brackets, pmap, [])


def witt_file(p: int) -> AlgebraFile:
    from .liealg import witt_algebra

    L, _ = witt_algebra(p)
    return from_algebra(L, f"witt{p}", [f"D{i}" for i in range(p)])


def parse_cocycle(text: str, af: AlgebraFile):
    """Degree-2 cochain file with adjoint coefficients.

    Lines: ``phi [<id>,<id>] = <terms>`` and ``omega <id> = <terms>``;
    undeclared entries are zero.  Returns (phi, omega) arrays shaped
    (n,n,n) and (n,n).
    """
    n, p = len(af.basis), af.p
    order = {b: i for i, b in enumerate(af.basis)}
    phi = np.zeros((n, n, n), dtype=np.int64)
    omega = np.zeros((n, n), dtype=np.int64)
    seen_phi: set[tuple[str, str]] = set()
    seen_omega: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)
        kw = cur.expect(_KEYWORD, "keyword (phi/omega)")
        if kw == "phi":
            cur.expect("[", "'['")
            a = cur.expect(_ID, "basis label")
            cur.expect(",", "','")
            b = cur.expect(_ID, "basis label")
            cur.expect("]", "']'")
            cur.expect("=", "'='")
            terms = _canon_terms(_parse_terms(cur), p, order, f"phi [{a},{b}]")
            key = (a, b) if order.get(a, 0) <= order.get(b, 0) else (b, a)
            if a not in order or b not in order:
                raise UnresolvedReference(f"phi uses unknown label {a!r} or {b!r}")
            if key in seen_phi:
                raise DuplicateLabel(f"phi [{key[0]},{key[1]}] declared twice")
            seen_phi.add(key)
            if a == b:
                if terms:
                    raise DslSyntaxError(lineno, 1, "zero entry on the diagonal")
                continue
            i, j = order[a], order[b]
            for coeff, label in terms:
                phi[i, j, order[label]] = coeff
            phi[j, i] = (-phi[i, j]) % p
        elif kw == "omega":
            a = cur.expect(_ID, "basis label")
            cur.expect("=", "'='")
            if a not in order:
                raise UnresolvedReference(f"omega uses unknown label {a!r}")
            if a in seen_omega:
                raise DuplicateLabel(f"omega {a!r} declared twice")
            seen_omega.add(a)
            for coeff, label in _canon_terms(_parse_terms(cur), p, order, f"omega {a}"):
                omega[order[a], order[label]] = coeff
        else:
            raise DslSyntaxError(lineno, 1, "keyword (phi/omega)")
    return phi, omega
