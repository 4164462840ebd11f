"""A small SMT-LIB v2 solver for formulas over bounded integers and reals.

This is the fallback backend executable: it reads SMT-LIB commands from
stdin (``set-logic``, ``declare-const``, ``assert``, ``push``/``pop``,
``check-sat``, ``get-model``, ``reset``, ``exit``) and answers on stdout,
so it can sit behind the same pipe protocol as any external solver.

Completeness is limited by design: every integer variable must have finite
bounds derivable from top-level ``(<= c v)`` / ``(< v c)``-style assertions,
and real variables must be determined by equation propagation (forms
``x = e``, ``x * e1 = e2``, ``x + e1 = e2`` with the rest evaluable) once the
integers are fixed.  The search enumerates integer assignments in ascending
declaration order with exact ``Fraction`` arithmetic and three-valued
constraint evaluation for pruning.  Anything outside the fragment yields
``unknown`` rather than a wrong answer.

The module intentionally imports nothing from the rest of this package: it
is the independent half of the solver-vs-enumeration differential tests.
Run it with ``python -m safereach.refsolver``, by file path, or as the
top-level module ``refsolver`` (how the package starts it).  Run as a
program, it stops a search, and exits, once the process that started it is
gone, so a driver killed mid-check leaves no solver behind.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction


# --------------------------------------------------------------------------
# S-expression reading
# --------------------------------------------------------------------------

class SmtSyntaxError(Exception):
    pass


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "() \t\r\n":
            if c in "()":
                tokens.append(c)
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in '|"':
            j = text.find(c, i + 1)
            if j < 0:
                kind = "quoted symbol" if c == "|" else "string literal"
                raise SmtSyntaxError(f"unterminated {kind}")
            tokens.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in "() \t\r\n;":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_tokens(tokens: list[str], pos: int) -> tuple[object, int]:
    if pos >= len(tokens):
        raise SmtSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = parse_tokens(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise SmtSyntaxError("unbalanced parenthesis")
        return tuple(items), pos + 1
    if tok == ")":
        raise SmtSyntaxError("unexpected ')'")
    return tok, pos + 1


class CommandReader:
    """Reads one balanced command at a time from a stream."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.tokens: list[str] = []

    def next_command(self):
        while True:
            depth = 0
            complete = -1
            for i, tok in enumerate(self.tokens):
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                    if depth == 0:
                        complete = i
                        break
                    if depth < 0:
                        raise SmtSyntaxError("unbalanced ')'")
                elif depth == 0:
                    raise SmtSyntaxError(f"stray token {tok!r} outside command")
            if complete >= 0:
                cmd, _ = parse_tokens(self.tokens[: complete + 1], 0)
                self.tokens = self.tokens[complete + 1:]
                return cmd
            line = self.stream.readline()
            if not line:
                return None
            self.tokens.extend(tokenize(line))


def atom_value(token: str):
    """Numeral/decimal tokens to int/Fraction; everything else stays a symbol."""
    if token and (token[0].isdigit() or (token[0] == "-" and token[1:].isdigit())):
        try:
            if "." in token:
                return Fraction(token)
            return int(token)
        except ValueError:
            raise SmtSyntaxError(f"malformed numeral {token!r}") from None
    if "." in token and token.replace(".", "", 1).isdigit():
        return Fraction(token)
    return token


# Arguments that evaluate() reads by position: exactly n, or at least n.
EXACT_ARITY = {"not": 1, "ite": 3}
MIN_ARITY = {"=>": 2, "-": 1, "/": 1}


def intern_term(term):
    """Fold numeral atoms to values and true/false to bools, once, at parse
    time, and reject an operator applied to too few arguments."""
    if isinstance(term, str):
        val = atom_value(term)
        if val == "true":
            return True
        if val == "false":
            return False
        return val
    if isinstance(term, tuple):
        if term and isinstance(term[0], str):
            head, count = term[0], len(term) - 1
            if count != EXACT_ARITY.get(head, count) or count < MIN_ARITY.get(head, 0):
                raise SmtSyntaxError(f"wrong number of arguments to {head!r}")
            return (head,) + tuple(intern_term(t) for t in term[1:])
        return tuple(intern_term(t) for t in term)
    return term


# --------------------------------------------------------------------------
# Three-valued evaluation and single-unknown equation solving
# --------------------------------------------------------------------------

def evaluate(term, env):
    """Evaluate an interned term under a partial assignment; ``None`` = unknown."""
    if isinstance(term, str):
        return env.get(term)
    if isinstance(term, (bool, int, Fraction)):
        return term
    if not isinstance(term, tuple) or not term:
        raise SmtSyntaxError(f"cannot evaluate {term!r}")
    head = term[0]
    args = term[1:]
    if head == "and":
        saw_unknown = False
        for a in args:
            v = evaluate(a, env)
            if v is False:
                return False
            if v is None:
                saw_unknown = True
        return None if saw_unknown else True
    if head == "or":
        saw_unknown = False
        for a in args:
            v = evaluate(a, env)
            if v is True:
                return True
            if v is None:
                saw_unknown = True
        return None if saw_unknown else False
    if head == "not":
        v = evaluate(args[0], env)
        return None if v is None else not v
    if head == "=>":
        # right-associative: (=> a b c) is (=> a (=> b c)), folded from the right
        out = evaluate(args[-1], env)
        for premise in reversed(args[:-1]):
            if out is not True:
                lhs = evaluate(premise, env)
                out = True if lhs is False else out if lhs is True else None
        return out
    if head == "ite":
        cond = evaluate(args[0], env)
        if cond is None:
            return None
        return evaluate(args[1] if cond else args[2], env)
    if head in ("=", "<", "<=", ">", ">="):
        vals = [evaluate(a, env) for a in args]
        if any(v is None for v in vals):
            return None
        if head == "=":
            return all(v == vals[0] for v in vals[1:])
        for left, right in zip(vals, vals[1:]):
            if head == "<" and not left < right:
                return False
            if head == "<=" and not left <= right:
                return False
            if head == ">" and not left > right:
                return False
            if head == ">=" and not left >= right:
                return False
        return True
    if head in ("+", "*", "-", "/"):
        vals = [evaluate(a, env) for a in args]
        if head == "*" and any(v == 0 for v in vals):
            return 0  # annihilator: sound even with unknown cofactors
        if any(v is None for v in vals):
            return None
        if head == "+":
            return sum(vals)
        if head == "*":
            out = vals[0]
            for v in vals[1:]:
                out = out * v
            return out
        if head == "-":
            if len(vals) == 1:
                return -vals[0]
            out = vals[0]
            for v in vals[1:]:
                out = out - v
            return out
        if any(v == 0 for v in vals[1:]):
            return None  # division by zero: stay agnostic
        out = Fraction(vals[0])
        for v in vals[1:]:
            out = out / v
        return out
    raise SmtSyntaxError(f"unsupported operator {head!r}")


CONFLICT = object()


def solve_equation(lhs, rhs, env):
    """Try to determine one variable from ``lhs = rhs``.

    Returns ``None`` (no progress), ``CONFLICT``, or ``(name, value)``.
    Handles a bare variable, or a variable inside a single +, - or * whose
    other operands are already known.
    """
    lval = evaluate(lhs, env)
    rval = evaluate(rhs, env)
    if lval is not None and rval is not None:
        return None  # fully known; plain evaluation decides it
    if lval is None and rval is None:
        return None
    expr, target = (lhs, rval) if lval is None else (rhs, lval)
    return _solve_side(expr, target, env)


def _solve_side(expr, target, env):
    if isinstance(expr, str):
        return (expr, target)
    if not isinstance(expr, tuple) or not expr:
        return None
    head, args = expr[0], expr[1:]
    if head == "*":
        known = Fraction(1)
        unknown = None
        for a in args:
            v = evaluate(a, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = a
            else:
                known *= v
        if unknown is None:
            return None
        if known == 0:
            return None if target == 0 else CONFLICT
        return _solve_side(unknown, target / known, env)
    if head == "+":
        known = Fraction(0)
        unknown = None
        for a in args:
            v = evaluate(a, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = a
            else:
                known += v
        if unknown is None:
            return None
        return _solve_side(unknown, target - known, env)
    if head == "-" and len(args) == 1:
        return _solve_side(args[0], -target, env)
    if head == "-" and len(args) == 2:
        left = evaluate(args[0], env)
        right = evaluate(args[1], env)
        if left is None and right is not None:
            return _solve_side(args[0], target + right, env)
        if right is None and left is not None:
            return _solve_side(args[1], left - target, env)
    return None


def term_vars(term, acc: set) -> set:
    if isinstance(term, str):
        acc.add(term)
    elif isinstance(term, tuple):
        for part in term[1:] if term and isinstance(term[0], str) else term:
            term_vars(part, acc)
    return acc


# --------------------------------------------------------------------------
# The search
# --------------------------------------------------------------------------

# Search nodes between two looks at whether the driver is still there.
PARENT_POLL_NODES = 1000


class Search:
    def __init__(self, decls: dict[str, str], assertions: list,
                 parent: int | None = None) -> None:
        self.decls = decls
        # The driver's pid; the search exits once this process's parent changes.
        self.parent = parent
        self.nodes = 0
        self.constraints: list = []
        for a in assertions:
            self._flatten(a)
        self.const_vars = [sorted(term_vars(c, set())) for c in self.constraints]
        self.watch: dict[str, list[int]] = {name: [] for name in decls}
        for cid, names in enumerate(self.const_vars):
            for name in names:
                if name in self.watch:
                    self.watch[name].append(cid)
        self.env: dict[str, object] = {}
        self.satisfied: set[int] = set()
        self.trail: list[tuple[list[str], list[int]]] = []
        self.inconclusive = False
        self.int_vars = [n for n in decls if decls[n] == "Int"]
        self.bounds = self._int_bounds()

    def _flatten(self, term) -> None:
        if isinstance(term, tuple) and term and term[0] == "and":
            for part in term[1:]:
                self._flatten(part)
        else:
            self.constraints.append(term)

    def _int_bounds(self) -> dict[str, tuple[int, int]]:
        lo: dict[str, int] = {}
        hi: dict[str, int] = {}
        for c in self.constraints:
            if not (isinstance(c, tuple) and len(c) == 3):
                continue
            head, av, bv = c
            if head in ("<=", "<") and isinstance(av, int) and isinstance(bv, str):
                base = av if head == "<=" else av + 1
                lo[bv] = max(lo.get(bv, base), base)
            elif head in ("<=", "<") and isinstance(bv, int) and isinstance(av, str):
                cap = bv if head == "<=" else bv - 1
                hi[av] = min(hi.get(av, cap), cap)
            elif head == "=":
                if isinstance(av, str) and isinstance(bv, int):
                    lo[av] = max(lo.get(av, bv), bv)
                    hi[av] = min(hi.get(av, bv), bv)
                elif isinstance(bv, str) and isinstance(av, int):
                    lo[bv] = max(lo.get(bv, av), av)
                    hi[bv] = min(hi.get(bv, av), av)
        out = {}
        for name in self.int_vars:
            if name in lo and name in hi:
                out[name] = (lo[name], hi[name])
        return out

    # -- trail management --------------------------------------------------

    def _push_level(self) -> None:
        self.trail.append(([], []))

    def _pop_level(self) -> None:
        names, cids = self.trail.pop()
        for name in names:
            del self.env[name]
        for cid in cids:
            self.satisfied.discard(cid)

    def _assign(self, name: str, value) -> bool:
        if self.decls.get(name) == "Int":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    return False
                value = int(value)
        elif self.decls.get(name) == "Real":
            value = Fraction(value)
        self.env[name] = value
        self.trail[-1][0].append(name)
        return True

    # -- propagation --------------------------------------------------------

    def _propagate(self, seeds: list[str]) -> bool:
        """Re-evaluate constraints touching newly assigned vars; returns False on conflict."""
        queue = set()
        for name in seeds:
            queue.update(self.watch.get(name, ()))
        if not seeds:
            queue = set(range(len(self.constraints)))
        while queue:
            cid = queue.pop()
            if cid in self.satisfied:
                continue
            c = self.constraints[cid]
            val = evaluate(c, self.env)
            if val is False:
                return False
            if val is True:
                self.satisfied.add(cid)
                self.trail[-1][1].append(cid)
                continue
            if isinstance(c, tuple) and c and c[0] == "=" and len(c) == 3:
                outcome = solve_equation(c[1], c[2], self.env)
                if outcome is CONFLICT:
                    return False
                if outcome is not None:
                    name, value = outcome
                    if name not in self.env:
                        if not self._assign(name, value):
                            return False
                        queue.update(self.watch.get(name, ()))
        return True

    # -- search --------------------------------------------------------------

    def run(self) -> tuple[str, dict]:
        self._push_level()
        if not self._propagate([]):
            return "unsat", {}
        todo = [n for n in self.int_vars if n not in self.env]
        for name in todo:
            if name not in self.bounds:
                return "unknown", {}
        verdict = self._dfs(todo, 0)
        if verdict is not None:
            return "sat", verdict
        return ("unknown", {}) if self.inconclusive else ("unsat", {})

    def _dfs(self, todo: list[str], depth: int):
        if depth == len(todo):
            return self._leaf()
        name = todo[depth]
        if name in self.env:  # pinned by propagation
            return self._dfs(todo, depth + 1)
        lo, hi = self.bounds[name]
        for value in range(lo, hi + 1):
            self.nodes += 1
            if self.nodes % PARENT_POLL_NODES == 0:
                self._check_parent()
            self._push_level()
            self._assign(name, value)
            if self._propagate([name]):
                found = self._dfs(todo, depth + 1)
                if found is not None:
                    return found
            self._pop_level()
        return None

    def _check_parent(self) -> None:
        if self.parent is not None and os.getppid() != self.parent:
            os._exit(1)  # orphaned: nobody is left to read the answer

    def _leaf(self):
        pending = [c for i, c in enumerate(self.constraints) if i not in self.satisfied]
        trial = dict(self.env)
        for name, sort in self.decls.items():
            if name not in trial:
                trial[name] = 0 if sort == "Int" else Fraction(0)
        for c in pending:
            if evaluate(c, trial) is not True:
                self.inconclusive = True
                return None
        return trial


# --------------------------------------------------------------------------
# Command loop
# --------------------------------------------------------------------------

def format_value(value, sort: str) -> str:
    """An int or Fraction as an SMT-LIB numeral term of ``sort``."""
    if sort == "Int":
        return str(value) if value >= 0 else f"(- {-value})"
    if value < 0:
        return f"(- {format_value(-value, sort)})"
    if value.denominator == 1:
        return f"{value.numerator}.0"
    return f"(/ {value.numerator}.0 {value.denominator}.0)"


# The argument lists each command accepts, one letter per argument: "a" an
# atom, "n" a numeral, "l" a list, "t" any term.  Commands not listed here
# take any arguments (the set-* family) or are unsupported.
COMMAND_SHAPES = {
    "declare-const": ("aa",), "declare-fun": ("ala",), "assert": ("t",),
    "push": ("", "n"), "pop": ("", "n"), "check-sat": ("",), "get-model": ("",),
    "get-info": ("a",), "echo": ("a",), "reset": ("",), "exit": ("",),
}
_ARGUMENT_FITS = {
    "a": lambda arg: isinstance(arg, str),
    "n": lambda arg: isinstance(arg, str) and arg.isascii() and arg.isdigit(),
    "l": lambda arg: isinstance(arg, tuple),
    "t": lambda arg: True,
}


def _fits(args: tuple, shape: str) -> bool:
    return len(args) == len(shape) and all(_ARGUMENT_FITS[kind](arg)
                                           for kind, arg in zip(shape, args))


class Session:
    def __init__(self, parent: int | None = None) -> None:
        self.parent = parent
        self.reset()

    def reset(self) -> None:
        self.decl_frames: list[dict[str, str]] = [{}]
        self.assert_frames: list[list] = [[]]
        self.last_model: dict | None = None

    def all_decls(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for frame in self.decl_frames:
            out.update(frame)
        return out

    def all_assertions(self) -> list:
        return [a for frame in self.assert_frames for a in frame]

    def handle(self, cmd, out) -> bool:
        """Process one command; returns False when the session should end."""
        if not isinstance(cmd, tuple) or not cmd:
            out.write('(error "malformed command")\n')
            return True
        head = cmd[0]
        shapes = COMMAND_SHAPES.get(head)
        if shapes is not None and not any(_fits(cmd[1:], shape) for shape in shapes):
            out.write(f'(error "wrong arguments to {head}")\n')
            out.flush()
            return True
        if head in ("set-logic", "set-option", "set-info"):
            pass
        elif head in ("declare-const", "declare-fun"):
            name = cmd[1]
            sort = cmd[-1]
            if head == "declare-fun" and cmd[2] != ():
                out.write('(error "only 0-ary functions supported")\n')
                return True
            if sort not in ("Int", "Real"):
                out.write(f'(error "unsupported sort {sort}")\n')
                return True
            self.decl_frames[-1][name] = sort
        elif head == "assert":
            try:
                self.assert_frames[-1].append(intern_term(cmd[1]))
            except SmtSyntaxError as exc:
                out.write(f'(error "{exc}")\n')
                out.flush()
                return True
        elif head == "push":
            count = int(cmd[1]) if len(cmd) > 1 else 1
            for _ in range(count):
                self.decl_frames.append({})
                self.assert_frames.append([])
        elif head == "pop":
            count = int(cmd[1]) if len(cmd) > 1 else 1
            for _ in range(count):
                if len(self.assert_frames) <= 1:
                    out.write('(error "pop on empty stack")\n')
                    return True
                self.decl_frames.pop()
                self.assert_frames.pop()
        elif head == "check-sat":
            try:
                search = Search(self.all_decls(), self.all_assertions(), self.parent)
                verdict, model = search.run()
            except SmtSyntaxError as exc:
                out.write(f'(error "{exc}")\n')
                return True
            self.last_model = model if verdict == "sat" else None
            out.write(verdict + "\n")
        elif head == "get-model":
            if self.last_model is None:
                out.write('(error "no model available")\n')
            else:
                decls = self.all_decls()
                lines = ["("]
                for name in sorted(decls):
                    sort = decls[name]
                    rendered = format_value(self.last_model[name], sort)
                    lines.append(f"  (define-fun {name} () {sort} {rendered})")
                lines.append(")")
                out.write("\n".join(lines) + "\n")
        elif head == "get-info":
            out.write(f"({cmd[1]} \"bounded-enumeration solver\")\n")
        elif head == "echo":
            out.write(cmd[1].strip('"') + "\n")
        elif head == "reset":
            self.reset()
        elif head == "exit":
            return False
        else:
            out.write(f'(error "unsupported command {head}")\n')
        out.flush()
        return True

    def loop(self, stream, out) -> None:
        reader = CommandReader(stream)
        while True:
            try:
                cmd = reader.next_command()
            except SmtSyntaxError as exc:
                out.write(f'(error "{exc}")\n')
                out.flush()
                return
            if cmd is None:
                return
            if not self.handle(cmd, out):
                return


def main() -> None:
    Session(os.getppid()).loop(sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
