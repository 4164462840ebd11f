"""A small SMT-LIB v2 solver for formulas over bounded integers and reals.

This is the default solver of the SMT-LIB backend: a session takes SMT-LIB
commands (``set-logic``, ``declare-const``, ``assert``, ``push``/``pop``,
``check-sat``, ``get-model``, ``reset``, ``exit``) and answers each with an
SMT-LIB term, so the driver reads it as it reads any external solver.

Completeness is limited by design: every integer variable must have finite
bounds derivable from top-level ``(<= c v)`` / ``(< v c)``-style assertions,
and real variables must be determined by equation propagation (forms
``x = e``, ``x * e1 = e2``, ``x + e1 = e2`` with the rest known) once the
integers are fixed.  The search enumerates integer assignments in ascending
declaration order with exact ``Fraction`` arithmetic and three-valued
constraint evaluation for pruning.

Each assertion is compiled once, when it is asserted, and kept in its
``push`` frame, so ``pop`` drops it and ``reset`` clears it.  A session
keeps one :class:`Search` until ``reset``: each frame's declarations,
constraints, watch lists, integer bounds and root propagation, on a trail
level of its own, so ``pop`` restores the level below exactly and
``check-sat`` propagates only the assertions since the last one.  A
``check-sat`` that follows a ``sat`` answer with only assertions between
starts its search at that model's integer assignment: every earlier one was
refuted under a subset of the live assertions.  A declaration, ``push``,
``pop`` or ``reset`` drops that point, as does a search that met an
inconclusive leaf.  The compiled closures are the one interpreter
(:class:`Compiler`): each top-level conjunct becomes one step over the
partial assignment, built in one walk that also collects the variables the
search watches it on.  A conjunct compiles when it uses only the operators
the driver writes (``and``, ``or``, ``not``, ``+``, ``*``, binary ``=``,
``<`` and ``<=``, and ``ite`` chains over one selector ``(= x k)`` or a
selector pair, which become dict lookups) over variables, bools and numerals
(:func:`numeral`).  Any other conjunct, such as ``=>``, ``-`` over variables
or ``>``, is outside the fragment: ``check-sat`` answers ``unknown`` while
one is live, rather than a wrong answer.  An assertion that names an
undeclared constant is answered with an error and not kept.

Commands and answers are terms; text is what a pipe carries.  The program
reads its commands with :class:`CommandReader`, which :func:`parse_tokens`
interns as it reads them, and writes each answer with :func:`render`.
:meth:`Session.run` is the one command loop: the program runs it on its
standard input, and the package's in-process endpoint on the terms sent.

The module intentionally imports nothing from the rest of this package: it
is the independent half of the solver-vs-enumeration differential tests.
It keeps no mutable state, so sessions may run in any threads, one owner
each; a read's deadline is checked per command, after root propagation and per node.
Run as a program, by file path (``python refsolver.py``) or with the
command ``safereach.solver.default_solver_command()`` returns, it stops a
search, and exits, once the process that started it is gone.
"""

from __future__ import annotations

import operator
import os
import re
import sys
import time
from fractions import Fraction
from functools import reduce


# --------------------------------------------------------------------------
# S-expression reading
# --------------------------------------------------------------------------

class SmtSyntaxError(Exception):
    pass


class MalformedCommand(SmtSyntaxError):
    """A balanced command with a malformed term in it: it is answered with an
    error, and the session goes on."""


# One token: a parenthesis, a symbol or numeral, a quoted symbol, a string
# literal (``""`` escapes ``"``), a comment, or a quote that is never closed.
_TOKEN = re.compile(r'[()]|[^() \t\r\n;|"][^() \t\r\n;]*|\|[^|]*\||"(?:[^"]|"")*"|;[^\n]*|[|"]')


def tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if ";" in text or "|" in text or '"' in text:
        tokens = [tok for tok in tokens if tok[0] != ";"]
        for tok in tokens:
            if tok in ("|", '"'):
                kind = "quoted symbol" if tok == "|" else "string literal"
                raise SmtSyntaxError(f"unterminated {kind}")
    return tokens


# Arguments read by position: exactly n, or at least n.
EXACT_ARITY = {"not": 1, "ite": 3}
MIN_ARITY = {"-": 1, "/": 1, "*": 1}


def _atom(token: str):
    """A numeral or decimal as int/Fraction, ``true``/``false`` as a bool and
    any other symbol as one interned string per name."""
    first = token[0]
    if first.isdigit() or (first == "-" and token[1:].isdigit()):
        try:
            return Fraction(token) if "." in token else int(token)
        except ValueError:
            raise SmtSyntaxError(f"malformed numeral {token!r}") from None
    if "." in token and token.replace(".", "", 1).isdigit():
        return Fraction(token)
    if token == "true":
        return True
    if token == "false":
        return False
    return sys.intern(token)


def parse_tokens(tokens: list[str], pos: int) -> tuple[object, int]:
    """The term that starts at ``tokens[pos]``, interned as it is read, and
    the position after it.

    Atoms become what :func:`_atom` makes of them, but the operator of a list
    is kept as written; a list that gives its operator the wrong number of
    arguments is rejected when it closes.
    """
    stack: list[list] = []
    atoms: dict[str, object] = {}  # each distinct token is read once
    n = len(tokens)
    while pos < n:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise SmtSyntaxError("unexpected ')'")
            items = stack.pop()
            if items and type(items[0]) is str:
                head, count = items[0], len(items) - 1
                if count != EXACT_ARITY.get(head, count) or count < MIN_ARITY.get(head, 0):
                    raise SmtSyntaxError(f"wrong number of arguments to {head!r}")
            term = tuple(items)
        elif stack and not stack[-1]:
            term = sys.intern(tok)  # an operator
        else:
            term = atoms.get(tok)
            if term is None:
                term = atoms[tok] = _atom(tok)
        if not stack:
            return term, pos
        stack[-1].append(term)
    raise SmtSyntaxError("unbalanced parenthesis" if stack else "unexpected end of input")


class CommandReader:
    """Reads one balanced term at a time from a stream, parsed: a command, or
    a solver's answer."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.tokens: list[str] = []

    def next_command(self):
        """The next list, or token outside any list as the symbol it is
        written as, or ``None`` once the stream runs dry.  A malformed list
        is passed over and raises :class:`MalformedCommand`; tokens that make
        no balanced list raise :class:`SmtSyntaxError`."""
        tokens, pos, depth = self.tokens, 0, 0
        while True:
            while pos < len(tokens):
                tok = tokens[pos]
                pos += 1
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                    if depth < 0:
                        raise SmtSyntaxError("unbalanced ')'")
                if depth == 0:
                    self.tokens = tokens[pos:]
                    if tok != ")":
                        return sys.intern(tok)
                    try:
                        return parse_tokens(tokens, 0)[0]
                    except SmtSyntaxError as exc:
                        raise MalformedCommand(str(exc)) from None
            line = self.stream.readline()
            if not line:
                return None
            tokens.extend(tokenize(line))


# --------------------------------------------------------------------------
# Compilation: each conjunct of the driver's fragment becomes closures
# --------------------------------------------------------------------------
#
# A compiled term is a closure ``fn(env)`` that returns the term's value
# under the partial assignment ``env``, ``None`` while it is unknown, built
# once when the assertion arrives instead of re-dispatching on the term's
# shape at every search node; a leaf gets none, its parent reads it.

_ZERO = Fraction(0)
_ONE = Fraction(1)
_VALUES = (int, Fraction, bool)  # the types of a leaf that is a value

# What an equation step returns when no value of its unknown can satisfy it.
CONFLICT = object()


class _Outside(Exception):
    """A term outside the compiled fragment, a malformed one included."""


def numeral(term):
    """The number a numeral term denotes: ``n``, ``n.m``, ``(- x)`` or
    ``(/ x y)`` over numerals, the shapes :func:`render` writes and
    solvers print model values in.  ``None`` for any other term, a bool
    included, and for a zero divisor."""
    kind = type(term)
    if kind is int or kind is Fraction:
        return term
    if kind is tuple and len(term) == 2 and term[0] == "-":
        value = numeral(term[1])
        return None if value is None else -value
    if kind is tuple and len(term) == 3 and term[0] == "/":
        num, den = numeral(term[1]), numeral(term[2])
        return None if num is None or not den else Fraction(num) / den
    return None


def _closure(x):
    """A compiled operand as a closure: a leaf, a name or a value, gets one."""
    if callable(x):
        return x
    return (lambda env: env.get(x)) if type(x) is str else (lambda env: x)


def _how(x):
    """How a parent reads an operand: 2 calls it, 1 gets its name, 0 is its value."""
    return 2 if callable(x) else 1 if type(x) is str else 0


def _read(x, env):
    """A compiled operand's value under ``env``."""
    return env.get(x) if type(x) is str else x(env) if callable(x) else x


def _junction(decisive: bool):
    """``and`` (``decisive`` False) or ``or`` (True): the first operand that
    is ``decisive`` decides it, else an unknown one leaves it unknown."""
    def build(fns):
        def fn(env):
            unknown = False
            for f in fns:
                v = f(env)
                if v is decisive:
                    return decisive
                if v is None:
                    unknown = True
            return None if unknown else not decisive
        return fn
    return build


def _not(fns):
    (arg,) = fns

    def fn(env):
        v = arg(env)
        return None if v is None else not v
    return fn


def _comparison(op):
    def build(args):
        left, right = args
        l_how, r_how = _how(left), _how(right)

        def fn(env):
            a = left(env) if l_how == 2 else env.get(left) if l_how else left
            b = right(env) if r_how == 2 else env.get(right) if r_how else right
            if a is None or b is None:
                return None
            return op(a, b)
        return fn
    return build


def _exact_sum(vals):
    """The sum of known numbers, over one common denominator: a single
    normalization instead of one ``Fraction`` addition per term."""
    num, den = 0, 1
    for v in vals:
        v_num = v.numerator
        if v_num:
            v_den = v.denominator
            if v_den == den:
                num += v_num
            else:
                num, den = num * v_den + v_num * den, den * v_den
    return num if den == 1 else Fraction(num, den)


def _sum(args):
    names = [x for x in args if type(x) is str]  # read in one pass: the order does not matter
    fns, values = [x for x in args if callable(x)], [x for x in args if type(x) in _VALUES]

    def fn(env):
        vals = [f(env) for f in fns]
        vals += map(env.get, names)
        for v in vals:
            if v is None:
                return None
        return _exact_sum(vals + values)
    return fn


def _product(args):
    # A known 0 factor decides the product whatever the other factors are.
    if len(args) == 2:
        return _times(*args)

    def fn(env):
        vals = [_read(x, env) for x in args]
        return 0 if 0 in vals else None if None in vals else reduce(operator.mul, vals)
    return fn


def _times(left, right):
    l_how, r_how = _how(left), _how(right)

    def fn(env):
        a = left(env) if l_how == 2 else env.get(left) if l_how else left
        if a == 0:
            return 0
        b = right(env) if r_how == 2 else env.get(right) if r_how else right
        if b == 0:
            return 0
        return None if a is None or b is None else a * b
    return fn


# Comparisons are compiled when binary, the only form the driver writes.
_COMPARISONS = {"=": operator.eq, "<": operator.lt, "<=": operator.le}

_BUILDERS = {
    "and": _junction(False), "or": _junction(True), "not": _not, "+": _sum, "*": _product,
    **{head: _comparison(op) for head, op in _COMPARISONS.items()},
}


def _pin(term) -> bool:
    """``(= x k)`` for a variable ``x`` and a numeral ``k``."""
    return (type(term) is tuple and len(term) == 3 and term[0] == "="
            and type(term[1]) is str and type(term[2]) in (int, Fraction))


def _selector(cond):
    """The variables and the key of a selector condition: ``(= x k)`` gives
    ``((x,), k)`` and ``(and (= x k) (= y m))`` gives ``((x, y), (k, m))``;
    any other condition gives ``None``."""
    if type(cond) is tuple and len(cond) == 3 and cond[0] == "and":
        x, y = cond[1], cond[2]
        return ((x[1], y[1]), (x[2], y[2])) if _pin(x) and _pin(y) else None
    return ((cond[1],), cond[2]) if _pin(cond) else None


def _single_table(names, table, default):
    """An ``ite`` chain over ``(= name k)``: the first case whose ``k`` equals
    the value wins, an unknown value leaves the chain unknown."""
    (name,) = names

    def fn(env):
        v = env.get(name)
        return None if v is None else table.get(v, default)
    return fn


def _pair_table(names, table, default):
    """An ``ite`` chain over ``(and (= x k) (= y m))``.  With both values
    known the first matching case wins.  With one known, the chain is unknown
    if that value occurs in some case (that case's condition is unknown) and
    is the default otherwise (every condition is false)."""
    x, y = names
    xs = {k for k, _ in table}
    ys = {m for _, m in table}

    def fn(env):
        xv = env.get(x)
        yv = env.get(y)
        if xv is None:
            return None if yv is None or yv in ys else default
        if yv is None:
            return None if xv in xs else default
        return table.get((xv, yv), default)
    return fn


def _no_progress(target, env):
    """The solver of a side that nothing is solved through."""
    return None


def _solve(sub, target, env):
    """Solving an operand for ``target``: ``sub`` is its solver, or its name."""
    return (sub, target) if type(sub) is str else sub(target, env)


def _solve_product(args, subs):
    def solve(target, env):
        known = _ONE
        unknown = None
        for x, sub in zip(args, subs):
            v = _read(x, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = sub
            elif known is _ONE:
                known = v if type(v) is Fraction else Fraction(v)
            else:
                known *= v
        if unknown is None:
            return None
        if not known.numerator:
            return None if target == 0 else CONFLICT
        return _solve(unknown, target / known, env)
    return solve


def _solve_sum(args, subs):
    def solve(target, env):
        known = _ZERO
        unknown = None
        for x, sub in zip(args, subs):
            v = _read(x, env)
            if v is None:
                if unknown is not None:
                    return None
                unknown = sub
            else:
                known += v
        if unknown is None:
            return None
        return _solve(unknown, target - known, env)
    return solve


_SOLVERS = {"*": _solve_product, "+": _solve_sum}


def _equation(left, right, solve_left, solve_right):
    """The propagation step of ``(= l r)``: its truth value once both sides
    are known, else what solving the unknown side for the known one gives
    (``None``, ``CONFLICT`` or ``(name, value)``)."""
    l_how, r_how = _how(left), _how(right)

    def step(env):
        lv = left(env) if l_how == 2 else env.get(left) if l_how else left
        rv = right(env) if r_how == 2 else env.get(right) if r_how else right
        if lv is None:
            return None if rv is None else _solve(solve_left, rv, env)
        if rv is None:
            return _solve(solve_right, lv, env)
        return rv == lv
    return step


class Compiler:
    """Compiles interned terms to three-valued closures, the solver's one
    interpreter.

    A term is compiled when every subterm uses the operators the driver
    writes: ``and``, ``or``, ``not``, ``+``, ``*``, binary ``=``, ``<`` and
    ``<=``, and ``ite`` chains over one selector or a selector pair, over
    variables, bools and numerals, which are folded once by :func:`numeral`.
    Any other term, a malformed one included, is outside the fragment:
    :meth:`term` and :meth:`constraint` return ``None`` for it.  A node is
    ``(closure, solver)``, built in one walk that adds every variable it
    meets to :attr:`names`; equal subterms are not shared.  A leaf's closure
    is its name or value; a selector chain is one lookup in a dict of values.
    """

    def __init__(self) -> None:
        # The variables of the terms compiled so far.
        self.names: set[str] = set()

    def term(self, term):
        return self._compile(term, False)

    def constraint(self, term):
        """The propagation step of a top-level constraint: the equation step
        for ``(= l r)``, the term's closure otherwise."""
        return self._compile(term, isinstance(term, tuple) and len(term) == 3
                             and term[0] == "=")

    def _compile(self, term, equation: bool):
        try:
            if not equation:
                return _closure(self._node(term, False)[0])
            left, solve_left = self._node(term[1], True)
            right, solve_right = self._node(term[2], True)
            return _equation(left, right, solve_left, solve_right)
        except _Outside:
            return None

    def _node(self, term, solving: bool):
        """``(closure, solver)`` of ``term``, a leaf's closure its name or
        value and a variable's solver its name.  With ``solving``, the solver
        ``solve(target, env)`` gives the ``(name, value)`` that makes ``term``
        equal ``target`` when one variable is unknown in it, reached through
        known operands of ``*`` and ``+``; ``CONFLICT`` when no value can;
        ``None`` for no progress.  Without ``solving`` it makes no progress.
        Raises :class:`_Outside` for a term the fragment does not cover."""
        kind = type(term)
        if kind is str:
            self.names.add(term)
            return term, term if solving else _no_progress
        if kind in _VALUES:
            return term, _no_progress
        head = term[0] if kind is tuple and term else None
        build = _BUILDERS.get(head)
        if build is not None and (head not in _COMPARISONS or len(term) == 3):
            solving = solving and head in _SOLVERS
            parts = [self._node(arg, solving) for arg in term[1:]]
            args = [_closure(fn) if head in ("and", "or", "not") else fn for fn, _ in parts]
            if solving:
                return build(args), _SOLVERS[head](args, [solve for _, solve in parts])
            return build(args), _no_progress
        selector = _selector(term[1]) if head == "ite" and len(term) == 4 else None
        if selector is not None:
            return self._table(term, selector), _no_progress
        value = numeral(term)
        if value is None:
            raise _Outside
        return value, _no_progress

    def _table(self, term, selector):
        """The chain at ``term``; every case, shadowed ones too, names variables."""
        names = selector[0]
        self.names.update(names)
        table: dict = {}
        rest = term
        while selector is not None and selector[0] == names:
            case = rest[2] if type(rest[2]) in _VALUES else self._node(rest[2], False)[0]
            table.setdefault(selector[1], case)
            rest = rest[3]
            selector = (_selector(rest[1]) if type(rest) is tuple and len(rest) == 4
                        and rest[0] == "ite" else None)
        default = rest if type(rest) in _VALUES else self._node(rest, False)[0]
        pick = _pair_table if len(names) == 2 else _single_table
        if all(type(value) in _VALUES for value in (*table.values(), default)):
            return pick(names, table, default)
        pick = pick(names, {key: _closure(case) for key, case in table.items()}, _closure(default))
        return lambda env: None if (fn := pick(env)) is None else fn(env)


class Constraint:
    """One top-level conjunct of an assertion, compiled when it is asserted.

    ``test(env)`` is the conjunct's value under ``env``; for an equation
    ``(= l r)`` it is the one-pass step that decides the equation or solves
    it for its single unknown (see :meth:`Compiler.constraint`).  ``test``
    is ``None``, and ``names`` empty, for a conjunct outside the fragment.
    Of the terms, only the integer bounds the search reads its ranges from
    are kept.
    """

    __slots__ = ("bound", "names", "test")

    def __init__(self, term, names: list[str], test) -> None:
        self.bound = term if _bound(term) else None
        self.names = names
        self.test = test


def _bound(term) -> bool:
    """``(<= k x)``, ``(< x k)`` and the like: a variable against an integer."""
    if not (isinstance(term, tuple) and len(term) == 3 and term[0] in ("<=", "<")):
        return False
    _, left, right = term
    return ((isinstance(left, int) and isinstance(right, str))
            or (isinstance(left, str) and isinstance(right, int)))


def _conjuncts(term, out: list) -> list:
    """The top-level conjuncts of ``term``, nested ``and`` flattened."""
    if isinstance(term, tuple) and term and term[0] == "and":
        for part in term[1:]:
            _conjuncts(part, out)
    else:
        out.append(term)
    return out


def compile_assertion(term) -> list[Constraint]:
    """An interned assertion as compiled constraints, one per conjunct, each
    named by the variables its walk met."""
    constraints = []
    for part in _conjuncts(term, []):
        compiler = Compiler()
        test = compiler.constraint(part)
        names = sorted(compiler.names) if test is not None else []
        constraints.append(Constraint(part, names, test))
    return constraints


# --------------------------------------------------------------------------
# The search
# --------------------------------------------------------------------------

# Search nodes between two looks at whether the driver is still there.
PARENT_POLL_NODES = 1000


class Search:
    """The search state of a session, kept from one ``check-sat`` to the next.

    A frame's new constraints are propagated on its own trail level, by
    :meth:`run` or when the next frame opens, so no lower frame's propagation
    fires a higher frame's constraints.  :meth:`run` searches above the top
    level and unwinds back to it, also when it is cut off.
    """

    def __init__(self, decls: dict[str, str] | None = None, constraints=(),
                 parent: int | None = None, deadline: float | None = None) -> None:
        # The driver's pid; the search exits once this process's parent changes.
        self.parent = parent
        # A time.monotonic() reading; the search raises TimeoutError past it.
        self.deadline = deadline
        self.nodes = 0
        self.decls: dict[str, str] = {}
        self.int_vars: list[str] = []
        self.tests: list = []
        self.watch: dict[str, list[int]] = {}
        self.lo, self.hi = {}, {}  # the integer bounds, by name
        self.env: dict[str, object] = {}
        self.satisfied: set[int] = set()
        # One level per frame, its root propagation, then one per search node.
        self.trail: list[tuple[list[str], list[int]]] = [([], [])]
        # Per frame: its declared names, its first constraint, the bounds below it.
        self.frames: list[tuple[list[str], int, dict, dict]] = [([], 0, {}, {})]
        self.settled = 0  # the constraints before this one are propagated
        self.failed: int | None = None  # the lowest frame whose root propagation failed
        self.resume: dict | None = None  # the last sat model: where the next search starts
        self.inconclusive = False
        for name, sort in (decls or {}).items():
            self.declare(name, sort)
        self.add(constraints)

    # -- the frames ------------------------------------------------------------

    def declare(self, name: str, sort: str) -> None:
        self.decls[name] = sort
        self.watch[name] = []
        if sort == "Int":
            self.int_vars.append(name)
        self.frames[-1][0].append(name)
        self.resume = None

    def add(self, constraints) -> None:
        """Keep ``constraints``, over declared names, in the top frame."""
        for c in constraints:
            for name in c.names:
                self.watch[name].append(len(self.tests))
            self.tests.append(c.test)
            if c.bound is not None:
                head, av, bv = c.bound
                if isinstance(bv, str):
                    base = av if head == "<=" else av + 1
                    self.lo[bv] = max(self.lo.get(bv, base), base)
                else:
                    cap = bv if head == "<=" else bv - 1
                    self.hi[av] = min(self.hi.get(av, cap), cap)

    def push(self) -> None:
        self._settle()
        self.frames.append(([], len(self.tests), dict(self.lo), dict(self.hi)))
        self.trail.append(([], []))
        self.resume = None

    def pop(self, count: int) -> None:
        for _ in range(count):
            names, first, self.lo, self.hi = self.frames.pop()
            self._pop_level()
            del self.tests[first:]
            for name in names:
                del self.decls[name], self.watch[name]
            for cids in self.watch.values():
                while cids and cids[-1] >= first:
                    cids.pop()
            self.settled = first
        self.int_vars = [name for name in self.int_vars if name in self.decls]
        if self.failed is not None and self.failed >= len(self.frames):
            self.failed = None
        self.resume = None

    def _settle(self) -> None:
        """Propagate the constraints added since the last settling, on the top frame's level."""
        pending = {cid for cid in range(self.settled, len(self.tests))
                   if self.tests[cid] is not None}
        self.settled = len(self.tests)
        if pending and self.failed is None and not self._propagate(pending):
            self.failed = len(self.frames) - 1

    # -- trail management --------------------------------------------------

    def _pop_level(self) -> None:
        names, cids = self.trail.pop()
        for name in names:
            del self.env[name]
        for cid in cids:
            self.satisfied.discard(cid)

    def _assign(self, name: str, value) -> bool:
        if type(value) is bool:
            return False  # no value of a number constant
        sort = self.decls[name]
        if sort == "Int" and type(value) is Fraction:
            if value.denominator != 1:
                return False
            value = int(value)
        elif sort == "Real" and type(value) is not Fraction:
            value = Fraction(value)
        self.env[name] = value
        self.trail[-1][0].append(name)
        return True

    # -- propagation --------------------------------------------------------

    def _propagate(self, queue: set[int]) -> bool:
        """Run the steps of the queued constraints and of those watching a
        variable this assigns; returns False on conflict."""
        env, tests, satisfied, watch = self.env, self.tests, self.satisfied, self.watch
        done = self.trail[-1][1]
        while queue:
            cid = queue.pop()
            if cid in satisfied:
                continue
            out = tests[cid](env)
            if out is True:
                satisfied.add(cid)
                done.append(cid)
            elif out is False or out is CONFLICT:
                return False
            elif type(out) is tuple:
                name, value = out
                if name not in env:
                    if not self._assign(name, value):
                        return False
                    # Solved exactly for its unknown: the equation now holds.
                    satisfied.add(cid)
                    done.append(cid)
                    queue.update(watch[name])
        return True

    # -- search --------------------------------------------------------------

    def run(self) -> tuple[str, dict]:
        """The answer to ``check-sat`` over the live frames, with its model."""
        self.nodes = 0
        if None in self.tests:
            return "unknown", {}  # a conjunct outside the fragment
        self._settle()
        if self.failed is not None:
            return "unsat", {}
        self._check_deadline()
        if any(name not in self.env and not (name in self.lo and name in self.hi)
               for name in self.int_vars):
            return "unknown", {}  # an integer with no bounds to search
        resume, self.resume = self.resume, None
        self.inconclusive = False
        root = len(self.trail)
        try:
            model = self._dfs(0, resume)
        finally:
            while len(self.trail) > root:
                self._pop_level()
        if model is None:
            return ("unknown", {}) if self.inconclusive else ("unsat", {})
        if not self.inconclusive:
            self.resume = model
        return "sat", model

    def _dfs(self, depth: int, resume: dict | None):
        """The first model from ``int_vars[depth]`` on, in ascending order,
        that does not come before ``resume``'s integer assignment."""
        if depth == len(self.int_vars):
            return self._leaf()
        name = self.int_vars[depth]
        at = None if resume is None else resume[name]
        pinned = self.env.get(name)
        if pinned is not None:  # by propagation
            if at is not None and pinned < at:
                return None  # every assignment below comes before the resume point
            return self._dfs(depth + 1, resume if pinned == at else None)
        lo, hi = self.lo[name], self.hi[name]
        for value in range(lo if at is None else max(lo, at), hi + 1):
            self.nodes += 1
            self._check_deadline()
            if self.nodes % PARENT_POLL_NODES == 0:
                self._check_parent()
            self.trail.append(([], []))
            self._assign(name, value)
            if self._propagate(set(self.watch[name])):
                found = self._dfs(depth + 1, resume if value == at else None)
                if found is not None:
                    return found
            self._pop_level()
        return None

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError("check-sat passed its deadline")

    def _check_parent(self) -> None:
        if self.parent is not None and os.getppid() != self.parent:
            os._exit(1)  # orphaned: nobody is left to read the answer

    def _leaf(self):
        trial = {name: 0 if sort == "Int" else _ZERO for name, sort in self.decls.items()}
        trial.update(self.env)
        for cid, test in enumerate(self.tests):
            if cid not in self.satisfied and test(trial) is not True:
                self.inconclusive = True
                return None
        return trial


# --------------------------------------------------------------------------
# Command loop
# --------------------------------------------------------------------------

def render(term) -> str:
    """A term as the SMT-LIB text :func:`parse_tokens` reads it from: an
    ``int`` is an Int numeral, a ``Fraction`` a Real one."""
    kind = type(term)
    if kind is tuple:
        return f"({' '.join(map(render, term))})"
    if kind is str:
        return term
    if kind is bool:
        return "true" if term else "false"
    if term < 0:
        return f"(- {render(-term)})"
    if kind is int:
        return str(term)
    if term.denominator == 1:
        return f"{term.numerator}.0"
    return f"(/ {term.numerator}.0 {term.denominator}.0)"


# The argument lists each command accepts, one letter per argument: "a" a
# symbol or string, "n" a numeral, "l" a list, "t" any term.  Commands not
# listed here take any arguments (the set-* family) or are unsupported.
COMMAND_SHAPES = {
    "declare-const": ("aa",), "declare-fun": ("ala",), "assert": ("t",),
    "push": ("", "n"), "pop": ("", "n"), "check-sat": ("",), "get-model": ("",),
    "get-info": ("a",), "echo": ("a",), "reset": ("",), "exit": ("",),
}
_ARGUMENT_FITS = {
    "a": lambda arg: isinstance(arg, str),
    "n": lambda arg: type(arg) is int and arg >= 0,
    "l": lambda arg: isinstance(arg, tuple),
    "t": lambda arg: True,
}


def _fits(args: tuple, shape: str) -> bool:
    return len(args) == len(shape) and all(_ARGUMENT_FITS[kind](arg)
                                           for kind, arg in zip(shape, args))


def _error(message: str) -> tuple:
    """An ``(error ...)`` answer, ``"`` in its message escaped as ``""``."""
    return ("error", '"%s"' % message.replace('"', '""'))


class Session:
    def __init__(self, parent: int | None = None) -> None:
        self.parent = parent
        self.reset()

    def reset(self) -> None:
        # Every push frame, with its root propagation, until the next reset.
        self.search = Search(parent=self.parent)
        # The model of the last sat check; any change to the assertion stack
        # since then drops it, so get-model answers with an error.
        self.last_model: dict | None = None

    def run(self, next_command, answer, deadline: float | None = None) -> bool:
        """Run the commands ``next_command()`` gives, handing each answer
        term to ``answer``, until it gives ``None`` (True: the session goes
        on), or until ``(exit)`` or tokens that make no command (False: it
        ends).  Past ``deadline``, a ``time.monotonic()`` reading, the next
        command, or a ``check-sat`` still searching, raises
        :class:`TimeoutError`."""
        while True:
            try:
                cmd = next_command()
                if type(cmd) is str:
                    raise SmtSyntaxError(f"stray token {cmd!r} outside command")
            except MalformedCommand as exc:
                reply = _error(str(exc))
            except SmtSyntaxError as exc:
                answer(_error(str(exc)))
                return False
            else:
                if cmd is None:
                    return True
                if cmd == ("exit",):
                    return False
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError("a command came past its deadline")
                reply = self._answer(cmd, deadline)
            if reply is not None:
                answer(reply)

    def _answer(self, cmd, deadline: float | None):
        """The answer term to one command, ``None`` for none."""
        if not cmd:
            return _error("malformed command")
        head = cmd[0]
        shapes = COMMAND_SHAPES.get(head)
        if shapes is not None and not any(_fits(cmd[1:], shape) for shape in shapes):
            return _error(f"wrong arguments to {head}")
        if head in ("set-logic", "set-option", "set-info"):
            pass
        elif head in ("declare-const", "declare-fun"):
            name = cmd[1]
            sort = cmd[-1]
            if head == "declare-fun" and cmd[2] != ():
                return _error("only 0-ary functions supported")
            if sort not in ("Int", "Real"):
                return _error(f"unsupported sort {sort}")
            if name in self.search.decls:
                return _error(f"{name} is already declared")  # and change nothing
            self.search.declare(name, sort)
            self.last_model = None
        elif head == "assert":
            constraints = compile_assertion(cmd[1])
            names = {name for c in constraints for name in c.names}
            undeclared = sorted(name for name in names if name not in self.search.decls)
            if undeclared:
                return _error(f"undeclared constant {undeclared[0]}")  # and keep nothing
            self.search.add(constraints)
            self.last_model = None
        elif head == "push":
            for _ in range(cmd[1] if len(cmd) > 1 else 1):
                self.search.push()
            self.last_model = None
        elif head == "pop":
            count = cmd[1] if len(cmd) > 1 else 1
            if count >= len(self.search.frames):
                return _error("pop on empty stack")  # and change nothing
            self.search.pop(count)
            self.last_model = None
        elif head == "check-sat":
            self.search.deadline = deadline
            verdict, model = self.search.run()
            self.last_model = model if verdict == "sat" else None
            return verdict
        elif head == "get-model":
            if self.last_model is None:
                return _error("no model available")
            return tuple(("define-fun", name, (), sort, self.last_model[name])
                         for name, sort in sorted(self.search.decls.items()))
        elif head == "get-info":
            return (cmd[1], '"bounded-enumeration solver"')
        elif head == "echo":
            return cmd[1][1:-1].replace('""', '"') if cmd[1][:1] == '"' else cmd[1]
        elif head == "reset":
            self.reset()
        else:
            return _error(f"unsupported command {head}")
        return None


def main() -> None:
    Session(os.getppid()).run(CommandReader(sys.stdin).next_command,
                              lambda answer: print(render(answer), flush=True))


if __name__ == "__main__":
    main()
