"""Unit tests for the bundled SMT-LIB reference solver, driven in-process."""

from __future__ import annotations

import hashlib
import io
import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safereach import refsolver
from safereach.refsolver import (
    CONFLICT,
    CommandReader,
    Compiler,
    Search,
    Session,
    SmtSyntaxError,
    numeral,
    parse_tokens,
    render,
    tokenize,
)
from safereach.solver.smtlib import parse_model

from oracles import evaluate, solve_equation, term_vars


def parse(text: str):
    """The interned term ``text`` reads as."""
    return parse_tokens(tokenize(text), 0)[0]


def run_script(script: str) -> list[str]:
    """Each answer to ``script``, rendered as the program writes it."""
    answers = []
    Session().run(CommandReader(io.StringIO(script)).next_command, answers.append)
    return [render(answer) for answer in answers]


def test_tokenizer_handles_comments_and_strings():
    tokens = tokenize('(echo "hi there") ; trailing comment\n(exit)')
    assert tokens == ["(", "echo", '"hi there"', ")", "(", "exit", ")"]


def test_parser_round_trip():
    tokens = tokenize("(assert (= x (+ 1 2)))")
    tree, consumed = parse_tokens(tokens, 0)
    assert tree == ("assert", ("=", "x", ("+", 1, 2)))
    assert consumed == len(tokens)


def test_command_reader_spans_lines():
    reader = CommandReader(io.StringIO("(assert\n (= x\n 1))\n(check-sat)\n\nsat 1.5 (\n(x)\n)\n"))
    assert reader.next_command() == ("assert", ("=", "x", 1))
    assert reader.next_command() == ("check-sat",)
    # A token outside any list is the symbol it is written as, a numeral too.
    assert reader.next_command() == "sat"
    assert reader.next_command() == "1.5"
    assert reader.next_command() == (("x",),)
    assert reader.next_command() is None


def test_three_valued_evaluation():
    env = {"x": F(1, 2)}
    assert evaluate(parse("(< x 1.0)"), env) is True
    assert evaluate(parse("(< y 1.0)"), env) is None
    assert evaluate(parse("(and (< x 1.0) (< y 1.0))"), env) is None
    assert evaluate(parse("(and (< 1.0 x) (< y 1.0))"), env) is False
    assert evaluate(parse("(or (< x 1.0) (< y 1.0))"), env) is True
    assert evaluate(parse("(* 0.0 y)"), env) == 0


def test_equation_solving_forms():
    env = {"d": F(1, 4), "u": F(1, 8)}
    # bare variable
    assert solve_equation(parse("x"), parse("2.0"), env) == ("x", F(2))
    # product with one unknown: b * d = u  =>  b = 1/2
    outcome = solve_equation(parse("(* b d)"), parse("u"), env)
    assert outcome == ("b", F(1, 2))
    # sum with one unknown
    outcome = solve_equation(parse("(+ d z)"), parse("1.0"), env)
    assert outcome == ("z", F(3, 4))
    # the compiled one-pass equation step agrees on every form
    for lhs, rhs in [("x", "2.0"), ("(* b d)", "u"), ("(+ d z)", "1.0")]:
        lhs, rhs = parse(lhs), parse(rhs)
        step = Compiler().constraint(("=", lhs, rhs))
        assert step(env) == solve_equation(lhs, rhs, env)


def test_check_sat_enumerates_ascending():
    lines = run_script("""
(declare-const a Int)
(assert (and (<= 0 a) (< a 5) (< 2 a)))
(check-sat)
(get-model)
""")
    assert lines[0] == "sat"
    assert "(define-fun a () Int 3)" in " ".join(lines)


def test_push_pop_scope_isolation():
    lines = run_script("""
(declare-const a Int)
(assert (and (<= 0 a) (< a 2)))
(push 1)
(assert (= a 1))
(pop 0)
(check-sat)
(pop 1)
(assert (= a 0))
(check-sat)
""")
    assert lines == ["sat", "sat"]


def test_unsat_on_conflicting_bounds():
    lines = run_script("""
(declare-const a Int)
(assert (and (<= 0 a) (< a 3)))
(assert (< 5 a))
(check-sat)
""")
    assert lines == ["unsat"]


def test_unknown_on_unbounded_integer():
    lines = run_script("""
(declare-const a Int)
(declare-const x Real)
(assert (= x (+ a 1)))
(check-sat)
""")
    assert lines == ["unknown"]


def test_real_propagation_through_division_free_product():
    lines = run_script("""
(declare-const b Real)
(declare-const d Real)
(declare-const u Real)
(assert (= u (/ 1.0 8.0)))
(assert (= d (/ 1.0 4.0)))
(assert (< 0.0 d))
(assert (= (* b d) u))
(check-sat)
(get-model)
""")
    assert lines[0] == "sat"
    assert "(define-fun b () Real (/ 1.0 2.0))" in " ".join(lines)


def test_reset_clears_everything():
    lines = run_script("""
(declare-const a Int)
(assert (and (<= 0 a) (< a 1)))
(check-sat)
(reset)
(declare-const b Int)
(assert (and (<= 1 b) (< b 2)))
(check-sat)
(get-model)
""")
    assert lines[0] == "sat" and lines[1] == "sat"
    rest = " ".join(lines[2:])
    assert "define-fun b" in rest and "define-fun a" not in rest


def test_error_responses():
    lines = run_script("""
(pop 1)
""")
    assert lines[0].startswith("(error")
    lines = run_script("""
(declare-const x String)
""")
    assert lines[0].startswith("(error")
    # An unterminated quote is answered, not a crash of the command loop.
    assert run_script("(declare-const |x Int)\n(check-sat)\n") \
        == ['(error "unterminated quoted symbol")']
    assert run_script('(echo "hi)\n') == ['(error "unterminated string literal")']
    # An unsupported operator, closed or not, also as the cofactor of a 0, is
    # outside the fragment: the check answers unknown, and the session goes on.
    for term in ("(foo 1)", "(foo x)", "(= 0 (* 0 (foo x)))", "(= 0 (* 0 (+ 1 (foo x))))"):
        assert run_script(f"(declare-const x Int)\n(assert (<= 0 x))\n(assert (< x 2))\n"
                          f"(assert {term})\n(check-sat)\n(echo \"on\")\n") \
            == ["unknown", "on"]


def test_malformed_assertions_answer_errors_and_the_session_goes_on():
    lines = run_script("""
(declare-const x Int)
(assert (= x 1abc))
(assert (not))
(assert (ite (= x 1) true))
(assert (= (*) 1))
(assert (<= 0 x))
(assert (< x 2))
(check-sat)
""")
    assert lines == ["(error \"malformed numeral '1abc'\")",
                     "(error \"wrong number of arguments to 'not'\")",
                     "(error \"wrong number of arguments to 'ite'\")",
                     "(error \"wrong number of arguments to '*'\")",
                     "sat"]


@pytest.mark.parametrize("command", [
    "(push x)", "(assert)", "(declare-const)", "(declare-fun f)", "(get-info)", "(echo)",
    "(push -1)", "(pop -1)",
])
def test_malformed_command_answers_an_error_and_the_session_goes_on(command):
    head = command[1:].split()[0].rstrip(")")
    assert run_script(f"{command}\n(check-sat)\n") \
        == [f'(error "wrong arguments to {head}")', "sat"]


def test_a_real_no_equation_determines_is_unknown():
    """The search fills an undetermined real with 0; an assertion that 0
    fails leaves the check inconclusive, not unsat."""
    assert run_script("(declare-const x Real)(assert (< 0.0 x))(check-sat)") == ["unknown"]


def test_implication_is_right_associative():
    # The reference reads (=> a b c) as (=> a (=> b c)); read as binary, the
    # first case says true.
    assert evaluate(parse("(=> true true false)"), {}) is False
    assert evaluate(parse("(=> false true false)"), {}) is True
    assert evaluate(parse("(=> true true x)"), {}) is None
    assert evaluate(parse("(=> y true true)"), {}) is True
    # The solver does not decide it: => is outside the fragment.
    lines = run_script("""
(declare-const x Int)
(assert (<= 0 x))
(assert (<= x 1))
(assert (=> true true false))
(check-sat)
""")
    assert lines == ["unknown"]


@pytest.mark.parametrize("term", [
    "(=> (= x 0) (= x 1))", "(= y (- x))", "(= y (- x 1))", "(= y (/ x 2.0))", "(> x 0)",
    "(>= x 0)", "(< 0 x 2)", "(= x 1 1)", "(= y (ite (< x 1) 1.0 2.0))", "(foo x)",
    "(= y (/ 1.0 0.0))", "(= y (- 1.0 0.5))", "(= y (ite true 1.0 2.0))",
])
def test_an_assertion_outside_the_fragment_answers_unknown_until_popped(term):
    assert run_script(f"(declare-const x Int)(declare-const y Real)(assert (<= 0 x))"
                      f"(assert (< x 2))(push 1)(assert {term})(check-sat)(get-model)(pop 1)"
                      f"(check-sat)") == ["unknown", '(error "no model available")', "sat"]
    assert Compiler().constraint(parse(term)) is None


def test_a_redeclared_constant_is_an_error_and_changes_nothing():
    assert run_script("(declare-const x Int)(declare-const x Real)(assert (= x 0.5))"
                      "(check-sat)") == ['(error "x is already declared")', "unsat"]
    # Live in an outer frame counts; a popped declaration is gone.
    assert run_script("(declare-const x Int)(push 1)(declare-fun x () Real)(declare-const y Int)"
                      "(pop 1)(declare-const y Real)(assert (= y 0.5))(assert (= x 1))"
                      "(check-sat)(get-model)") \
        == ['(error "x is already declared")', "sat",
            "((define-fun x () Int 1) (define-fun y () Real (/ 1.0 2.0)))"]


def test_an_error_about_a_quoted_name_is_one_string_token():
    """``"`` in an error message is escaped as ``""``: the answer reads back
    as one string literal, and ``echo`` of that literal gives the message."""
    (answer,) = run_script('(declare-const |a"b| Int)(declare-const |a"b| Int)')
    assert answer == '(error "|a""b| is already declared")'
    assert tokenize(answer) == ["(", "error", '"|a""b| is already declared"', ")"]
    assert run_script(f"(echo {tokenize(answer)[2]})") == ['|a"b| is already declared']
    assert run_script('(declare-const x |S"t|)') == ['(error "unsupported sort |S""t|")']


def test_an_assertion_naming_an_undeclared_constant_is_an_error_and_not_kept():
    assert run_script("(declare-const x Int)(assert (<= 0 x))(assert (< x 3))(assert (= x y))"
                      "(check-sat)(get-model)") \
        == ['(error "undeclared constant y")', "sat", "((define-fun x () Int 0))"]
    # The whole assertion is dropped, its declared conjuncts too.
    assert run_script("(declare-const x Int)(assert (<= 0 x))(assert (< x 3))"
                      "(assert (and (= x 2) (< z 1)))(check-sat)(get-model)") \
        == ['(error "undeclared constant z")', "sat", "((define-fun x () Int 0))"]
    # A constant declared in a popped frame is undeclared again.
    assert run_script("(push 1)(declare-const y Real)(pop 1)(assert (= y 1.0))(check-sat)") \
        == ['(error "undeclared constant y")', "sat"]


@pytest.mark.parametrize("sort", ["Int", "Real"])
def test_a_bool_is_no_value_of_a_number_constant(sort):
    """Solving ``(= x true)`` for ``x`` gives a bool, which no number equals."""
    assert run_script(f"(declare-const x {sort})(assert (= x true))(check-sat)(get-model)") \
        == ["unsat", '(error "no model available")']


def test_a_bool_definition_propagates_with_no_search_node():
    """``(= f (or ...))`` over known operands assigns the Bool ``f`` by
    propagation: the check searches no node, and the model lists ``f``."""
    session = Session()
    answers = ask(session, [*(("declare-const", name, "Bool") for name in ("f", "g", "p")),
                            ("declare-const", "x", "Real"), ("assert", ("=", "x", F(1, 2))),
                            ("assert", ("=", "p", ("<", F(0), "x"))),
                            ("assert", ("=", "f", ("or", "g", ("and", "p", ("<", "x", 1))))),
                            ("assert", ("=", "g", False)), ("assert", "f"), *CHECK_AND_MODEL])
    assert session.search.nodes == 0
    assert answers == ["sat", (("define-fun", "f", (), "Bool", True),
                               ("define-fun", "g", (), "Bool", False),
                               ("define-fun", "p", (), "Bool", True),
                               ("define-fun", "x", (), "Real", F(1, 2)))]
    # A Bool nothing assigns is false at a leaf, and a Bool no number.
    assert run_script("(declare-const b Bool)(check-sat)(get-model)") \
        == ["sat", "((define-fun b () Bool false))"]
    assert run_script("(declare-const b Bool)(assert (= b 1.0))(check-sat)") == ["unsat"]


BOOL_DEFINITIONS = [
    ("=", "f", ("or", "g", ("and", "p", "q"))), ("=", "p", ("and", "q", "r")),
    ("=", "p", ("and", "q", ("<", "x", F(1, 2)))), ("=", "f", ("or", ("<=", F(1), "y"), "g")),
    ("=", "p", True), ("=", "f", ("or", ("and", "q", "r"), ("and", "p", "g"))),
]
BOOL_ENVS = [dict(zip(names, values)) for names in [("f", "g", "p", "q", "r")]
             for values in itertools.product((None, True, False), repeat=5)]


@pytest.mark.parametrize("term", BOOL_DEFINITIONS, ids=repr)
def test_compiled_bool_definitions_step_like_the_reference(term):
    """A chain's definition, compiled, steps as :func:`evaluate` then
    :func:`solve_equation` do, under every three-valued assignment of its flags."""
    (constraint,) = refsolver.compile_assertion(term)
    assert constraint.test is not None
    for flags in BOOL_ENVS:
        for numbers in ({}, {"x": F(0), "y": F(1)}, {"x": F(1), "y": F(0)}):
            env = {name: v for name, v in {**flags, **numbers}.items() if v is not None}
            assert same_value(constraint.test(env), reference_step(term, env)), (term, env)


def test_render_numeral_shapes():
    assert render(3) == "3"
    assert render(-3) == "(- 3)"
    assert render(F(1)) == "1.0"
    assert render(F(2, 7)) == "(/ 2.0 7.0)"
    assert render(F(-2, 7)) == "(- (/ 2.0 7.0))"
    assert render(F(3)) == "3.0"
    assert render(F(-3)) == "(- 3.0)"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10**9, 10**9), st.fractions()))
def test_render_reads_back_through_the_numeral_reader_and_the_model_parser(value):
    """Every number written reads back as itself, signs and zero included,
    from the term :func:`parse_tokens` makes of it and from a model answer."""
    for sort in ("Int", "Real") if type(value) is int else ("Real",):
        text = render(value if sort == "Int" else F(value))
        assert numeral(parse(text)) == value, (value, sort, text)
        read = parse_model(parse(f"((define-fun v () {sort} {text}))"))["v"]
        assert read == value and type(read) is (int if sort == "Int" else F), (value, sort)


def test_the_numeral_reader_reads_numerals_only():
    assert numeral(parse("(/ (- 1) 4.0)")) == F(-1, 4)
    assert numeral(parse("(- (/ 6 4))")) == F(-3, 2)
    for text in ("x", "true", "(/ 1.0 0.0)", "(/ 1.0 (- 0))", "(- 2 1)", "(+ 1 2)", "(/ 1)",
                 "(/ 1 2 3)", "(- x)", "(/ 1 true)"):
        assert numeral(parse(text)) is None, text


def test_search_fills_unconstrained_variables():
    decls = {"x": "Real"}
    verdict, model = Search(decls, []).run()
    assert verdict == "sat"
    assert model["x"] == 0


def test_a_failed_pop_changes_nothing():
    lines = run_script("""
(declare-const y Int)
(assert (= y 1))
(push 1)
(declare-const x Int)
(assert (= x 2))
(pop 2)
(check-sat)
(get-model)
""")
    assert lines == ['(error "pop on empty stack")', "sat",
                     "((define-fun x () Int 2) (define-fun y () Int 1))"]


def test_get_model_after_the_assertion_stack_changed_is_an_error():
    bounded_x = "(declare-const x Int)(assert (<= 0 x))(assert (< x 2))(check-sat)"
    # A declaration after the check: its variable has no model value.
    assert run_script(bounded_x + "(declare-const y Int)(get-model)(check-sat)") \
        == ["sat", '(error "no model available")', "unknown"]
    # An assertion after the check: the old model may not satisfy it.
    assert run_script(bounded_x + "(push 1)(assert (= x 5))(get-model)(pop 1)(get-model)"
                      "(check-sat)(get-model)") \
        == ["sat", '(error "no model available")', '(error "no model available")',
            "sat", "((define-fun x () Int 0))"]


def test_a_read_past_its_deadline_times_out_even_with_no_search_node():
    """Every selector is pinned, so the check visits no search node; a
    deadline already past still ends it, before its first command and after
    the root propagation."""
    commands = [("declare-const", "i", "Int"), ("assert", ("=", "i", 1)), ("check-sat",)]
    answers = []
    queued = iter(commands)
    assert Session().run(lambda: next(queued, None), answers.append, time.monotonic() + 60)
    assert answers == ["sat"]
    past = time.monotonic() - 1
    queued = iter(commands)
    with pytest.raises(TimeoutError):
        Session().run(lambda: next(queued, None), answers.append, past)
    assert answers == ["sat"]  # nothing more was answered
    search = Search({"i": "Int"}, refsolver.compile_assertion(("=", "i", 1)), deadline=past)
    with pytest.raises(TimeoutError):
        search.run()
    assert search.nodes == 0


# --------------------------------------------------------------------------
# The compiled terms against the reference in tests/oracles.py
# --------------------------------------------------------------------------

VARIABLES = ("i", "j", "x", "y")  # i, j hold integers; x, y rationals


def same_value(compiled, expected) -> bool:
    """Equal three-valued results: both unknown, or the same truth value, or
    the same number (or solved pair, ``CONFLICT`` or error message)."""
    return ((compiled is None) == (expected is None)
            and isinstance(compiled, bool) == isinstance(expected, bool)
            and compiled == expected)


def outcome(compute):
    """``compute()``, or the message of the syntax error it raises."""
    try:
        return compute()
    except SmtSyntaxError as exc:
        return str(exc)


def reference_step(term, env):
    """What a conjunct's step must give: :func:`evaluate`, then
    :func:`solve_equation` for an equation it leaves undecided."""
    value = evaluate(term, env)
    if value is None and isinstance(term, tuple) and len(term) == 3 and term[0] == "=":
        return solve_equation(term[1], term[2], env)
    return value


def assert_compiled_or_outside(term, env) -> bool:
    """``term`` compiles and its closure agrees with the reference under
    ``env``, or it is outside the fragment: never a different value.  True
    if it compiled."""
    fn = Compiler().term(term)
    if fn is not None:
        expected = outcome(lambda: evaluate(term, env))
        assert same_value(fn(env), expected), (term, env, fn(env), expected)
    return fn is not None


def compiled(compile):
    """``compile()``, failing if the term is outside the fragment."""
    fn = compile()
    assert fn is not None, "a fragment term did not compile"
    return fn


def ite_chain(cases, default):
    for cond, value in reversed(cases):
        default = ("ite", cond, value, default)
    return default


def pin(name, k):
    return ("=", name, k)


# Selector chains: one selector, a pair, a repeated key, a selector change.
CHAIN_SINGLE = ite_chain([(pin("i", 0), F(1, 2)), (pin("i", 1), "x"), (pin("i", 0), 7)], F(1, 3))
CHAIN_PAIR = ite_chain([(("and", pin("i", 0), pin("j", 1)), 1),
                        (("and", pin("i", 1), pin("j", 1)), 2),
                        (("and", pin("i", 0), pin("j", 1)), 3)], 9)
CHAIN_SWITCH = ite_chain([(pin("i", 0), 1), (pin("j", 0), 2), (pin("i", 1), 3)], 4)
CHAIN_PAIR_SWITCH = ite_chain([(("and", pin("i", 0), pin("j", 0)), 1), (pin("i", 1), 2),
                               (("and", pin("i", 2), pin("j", 0)), 3)], 4)

EDGE_INSIDE = [
    ("*", 0, "x"), ("*", "x", F(0)), ("*", "x", "y", 0), ("*", "x", 2), ("*", False, "x"),
    ("/", F(1), F(2)), ("-", 3),
    ("and", ("<", "x", 1), False), ("or", ("<", "x", 1), True), ("not", ("=", "x", "y")),
    ("+", True, 1), ("+", "x", "y", F(1, 2)),
    CHAIN_SINGLE, CHAIN_PAIR, CHAIN_SWITCH, CHAIN_PAIR_SWITCH,
]
# Outside the fragment: an unknown operator (also as the cofactor of a 0), a
# zero divisor, - or / over variables, =>, n-ary comparisons.
EDGE_OUTSIDE = [
    ("*", 0, ("foo", "x")), ("*", 0, ("+", 1, ("foo", "x"))),
    ("/", 1, 0), ("/", "x", "i"), ("-", "x", 1, "y"),
    ("=>", True, True, False), ("=>", False, True, False), ("=>", "b", True, True),
    ("=>", ("<", "x", 1), ("<", "y", 1), ("=", "i", 0)),
    ("<", 0, "x", "y"), ("=", "i", "j", 0),
]
EDGE_ENVS = [{}, {"i": 0}, {"i": 1}, {"i": 2}, {"j": 1}, {"j": 0}, {"j": 5}, {"i": 0, "j": 1},
             {"i": 1, "j": 0}, {"i": 3, "j": 1}, {"x": F(0)}, {"x": F(1, 2), "y": F(0)},
             {"i": 0, "x": F(3, 2), "y": F(1, 2)}]


@pytest.mark.parametrize("term", EDGE_INSIDE + EDGE_OUTSIDE, ids=repr)
def test_compiled_edge_terms_match_evaluate(term):
    for env in EDGE_ENVS:
        assert assert_compiled_or_outside(term, env) == (term in EDGE_INSIDE), term


def test_selector_tables_follow_the_first_case_and_the_default():
    table = Compiler().term(CHAIN_PAIR)
    assert table({"i": 0, "j": 1}) == 1  # the repeated key keeps its first case
    assert table({"i": 3}) == 9  # no case has i = 3: the default, j unknown
    assert table({"j": 5}) == 9
    assert table({"i": 1}) is None
    assert Compiler().term(CHAIN_SWITCH)({"i": 1}) is None  # the j case is unknown



numerals = st.one_of(st.integers(-1, 2), st.sampled_from([F(0), F(1, 2), F(-3, 2), F(2)]),
                     st.booleans())
leaves = st.one_of(st.sampled_from(VARIABLES), numerals)
keys = st.integers(0, 2)


@st.composite
def selector_chains(draw, branches):
    """An ite chain over one selector or a pair, which may switch part-way."""
    def selector():
        return draw(st.sampled_from([("i",), ("j",), ("x",), ("i", "j"), ("j", "x")]))

    names = selector()
    cases = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            names = selector()
        pins = [pin(name, draw(keys)) for name in names]
        cond = pins[0] if len(pins) == 1 else ("and", *pins)
        cases.append((cond, draw(branches)))
    return ite_chain(cases, draw(branches))


def compounds(children):
    ops = st.sampled_from(["and", "or", "+", "*", "-", "/", "=", "<", "<=", ">", ">="])
    return st.one_of(
        st.builds(lambda op, args: (op, *args), ops, st.lists(children, min_size=1, max_size=4)),
        st.builds(lambda args: ("=>", *args), st.lists(children, min_size=2, max_size=4)),
        st.builds(lambda arg: ("not", arg), children),
        st.builds(lambda c, t, e: ("ite", c, t, e), children, children, children),
        selector_chains(children),
    )


terms = st.recursive(leaves, compounds, max_leaves=16)
envs = st.fixed_dictionaries({}, optional={
    "i": st.integers(-1, 3), "j": st.integers(-1, 3),
    "x": st.sampled_from([F(0), F(1), F(2), F(1, 2), F(-1, 3)]),
    "y": st.sampled_from([F(0), F(1), F(1, 2), F(-1, 3)])})


@st.composite
def numeral_chains(draw):
    """An ite chain whose cases and default are all numerals, Int and Real,
    0 included, over one selector or a pair, with keys drawn from a small
    range so that some repeat and shadow a later case."""
    names = draw(st.sampled_from([("i",), ("j",), ("x",), ("i", "j"), ("j", "i"), ("i", "x")]))
    values = st.one_of(st.integers(-1, 2), st.sampled_from([F(0), F(1, 2), F(-3, 2), F(1)]))
    cases = []
    for _ in range(draw(st.integers(1, 6))):
        pins = [pin(name, draw(st.one_of(keys, st.sampled_from([F(0), F(1)]))))
                for name in names]
        cases.append((pins[0] if len(pins) == 1 else ("and", *pins), draw(values)))
    return ite_chain(cases, draw(values))


@settings(max_examples=300, deadline=None)
@given(numeral_chains(), envs)
def test_numeral_chains_are_value_tables_that_match_evaluate(chain, env):
    table = compiled(lambda: Compiler().term(chain))
    assert same_value(table(env), evaluate(chain, env)), (chain, env)
    (constraint,) = refsolver.compile_assertion(("=", "y", chain))
    assert constraint.names == sorted(term_vars(("=", "y", chain), set()))
    assert same_value(constraint.test(env), reference_step(("=", "y", chain), env))


def test_a_chain_names_the_variables_of_its_shadowed_cases():
    chain = ite_chain([(pin("i", 0), 1), (pin("i", 0), "x"), (pin("i", 1), 2)], 0)
    (constraint,) = refsolver.compile_assertion(("<", chain, "y"))
    assert constraint.names == ["i", "x", "y"]
    assert constraint.test({"i": 0, "y": F(2)}) is True  # the first case wins, x unread


# The next two properties draw any term, many of them outside the fragment:
# each compiles and agrees with the reference, or is outside.

@settings(max_examples=300, deadline=None)
@given(terms, envs)
def test_compiled_terms_match_evaluate(term, env):
    assert_compiled_or_outside(term, env)


arithmetic = st.recursive(leaves, lambda children: st.builds(
    lambda op, args: (op, *args), st.sampled_from(["+", "*", "-"]),
    st.lists(children, min_size=1, max_size=3)), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(arithmetic, arithmetic, envs)
def test_compiled_equation_step_matches_evaluate_then_solve(lhs, rhs, env):
    step = Compiler().constraint(("=", lhs, rhs))
    if step is None:
        return  # outside the fragment
    got = step(env)
    expected = reference_step(("=", lhs, rhs), env)
    if expected is CONFLICT or expected is None or isinstance(expected, bool):
        assert got is expected
    else:
        assert type(got) is tuple and got[0] == expected[0] and got[1] == expected[1]


# These draw only terms of the fragment, and fail if any is outside.

# Numeral terms, folded when compiled.
folded = st.sampled_from([("-", 2), ("-", F(1, 2)), ("/", F(1), F(3)), ("/", ("-", 1), 2),
                          ("-", ("/", F(1), F(3)))])
fragment_leaves = st.one_of(leaves, folded)


def fragment_compounds(children):
    return st.one_of(
        st.builds(lambda op, args: (op, *args), st.sampled_from(["and", "or", "+", "*"]),
                  st.lists(children, min_size=1, max_size=4)),
        st.builds(lambda op, l, r: (op, l, r), st.sampled_from(["=", "<", "<="]),
                  children, children),
        st.builds(lambda arg: ("not", arg), children),
        selector_chains(children),
    )


fragment_terms = st.recursive(fragment_leaves, fragment_compounds, max_leaves=16)
fragment_arithmetic = st.recursive(fragment_leaves, lambda children: st.builds(
    lambda op, args: (op, *args), st.sampled_from(["+", "*"]),
    st.lists(children, min_size=1, max_size=3)), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(fragment_terms, envs)
def test_compiled_fragment_terms_match_evaluate(term, env):
    fn = compiled(lambda: Compiler().term(term))
    assert same_value(fn(env), evaluate(term, env)), (term, env)


@settings(max_examples=300, deadline=None)
@given(fragment_arithmetic, fragment_arithmetic, envs)
def test_compiled_fragment_equation_step_matches_evaluate_then_solve(lhs, rhs, env):
    step = compiled(lambda: Compiler().constraint(("=", lhs, rhs)))
    assert same_value(step(env), reference_step(("=", lhs, rhs), env)), (lhs, rhs, env)


# A conjunct, flagged when drawn from the fragment: a fragment term, an
# equation over the fragment, or any equation or term.
conjuncts = st.one_of(st.tuples(st.just(True), fragment_terms),
                      st.tuples(st.just(True), st.builds(lambda l, r: ("=", l, r),
                                                         fragment_arithmetic,
                                                         fragment_arithmetic)),
                      st.tuples(st.just(False), st.builds(lambda l, r: ("=", l, r),
                                                          arithmetic, arithmetic)),
                      st.tuples(st.just(False), terms))


@settings(max_examples=300, deadline=None)
@given(st.lists(conjuncts, min_size=1, max_size=4), st.lists(envs, min_size=1, max_size=3))
def test_each_compiled_conjunct_steps_like_the_reference(parts, environments):
    """Mixed assertions: each conjunct's step is the reference's, or the
    conjunct is outside the fragment, which no fragment conjunct is."""
    flagged = [(fragment, sub) for fragment, part in parts
               for sub in refsolver._conjuncts(part, [])]
    constraints = refsolver.compile_assertion(("and", *(part for _, part in parts)))
    for constraint, (fragment, part) in zip(constraints, flagged, strict=True):
        if constraint.test is None:
            assert not fragment and constraint.names == [], part
            continue
        for env in environments:
            assert same_value(constraint.test(env), reference_step(part, env)), (part, env)


# --------------------------------------------------------------------------
# The search's work on a fixed problem
# --------------------------------------------------------------------------

def test_search_work_on_kitchen_2x2_det_h4_is_pinned(monkeypatch):
    """The assertions the incremental driver's first solver process gets for
    kitchen 2x2 det h4, fed in-process: nodes per check and models are fixed.
    The check after the lemma resumes at the previous model, so it walks
    none of the assignments before it.  A pruning change moves these counts
    on purpose."""
    from safereach.core import RunContext
    from safereach.domains import kitchen_rung
    from safereach.encoding import DeadAction, Goal, Initial, Transition
    from safereach.solver import smtlib

    model, b_init, objective = kitchen_rung("2x2-M1-det")
    run = RunContext(model, objective)
    session, answers = Session(), []
    nodes: list[int] = []
    search_run = Search.run

    def counting_run(search):
        verdict = search_run(search)
        nodes.append(search.nodes)
        return verdict

    monkeypatch.setattr(refsolver.Search, "run", counting_run)

    def send(command):
        session.run(iter([command, None]).__next__, answers.append)

    def assert_(constraint, *span):
        for declaration in smtlib._declarations(constraint, len(model.states)):
            send(declaration)
        send(("assert", smtlib.lower(constraint, run, *span)))
        if isinstance(constraint, Transition):
            send(("assert", smtlib._chain(constraint.step, 0, len(model.states), objective)))

    def model_text():
        """The model answer in the layout the program once wrote it in, one
        ``define-fun`` a line, so the hashes below pin the models."""
        send(smtlib.GET_MODEL)
        return "".join(["(\n", *(f"  {render(entry)}\n" for entry in answers[-1]), ")\n"])

    assert_(Initial(0, b_init))
    for horizon in range(3):
        if horizon:
            assert_(Transition(horizon))
        send(smtlib.PUSH)
        assert_(Goal(0, horizon))
        send(smtlib.CHECK_SAT)
        if horizon < 2:
            send(smtlib.POP)
    first = model_text()
    plan = smtlib._decode_plan(smtlib.parse_model(answers[-1]), 0, 2, model)
    assert_(DeadAction(plan.beliefs[1], plan.actions[1], 1, plan.observations[1]), (0, 2))
    send(smtlib.CHECK_SAT)
    second = model_text()

    assert nodes == [0, 34, 118, 5]
    verdicts = [answer for answer in answers if answer in ("sat", "unsat")]
    assert verdicts == ["unsat", "unsat", "sat", "sat"]
    assert (plan.actions, plan.observations) == ((3, 8), (2, 0))
    assert "(define-fun a_2 () Int 9)" in second
    assert "(define-fun f_2 () Bool true)" in first
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest(first) == "e45c866ab5c089be"
    assert digest(second) == "2033265735dce303"
    # Without the chain's flags, the models are those of the per-clause goal.
    numbers = lambda text: "".join(line for line in text.splitlines(True) if " Bool " not in line)
    assert digest(numbers(first)) == "80eb4c1f5182a79b"
    assert digest(numbers(second)) == "9433a431821a62da"


# --------------------------------------------------------------------------
# One long-lived session against a fresh one at every check
# --------------------------------------------------------------------------

CHECK_AND_MODEL = (("check-sat",), ("get-model",))


def ask(session: Session, commands, deadline: float | None = None) -> list:
    """The answers of ``session`` to ``commands``."""
    answers, queued = [], iter(commands)
    session.run(lambda: next(queued, None), answers.append, deadline)
    return answers


def bps_streams(problems, monkeypatch) -> list[list]:
    """The commands ``bps`` sends each solver endpoint while it solves each
    of ``problems``, ``(model, b_init, objective, horizon)``, on smtlib."""
    from safereach import SynthesisConfig, synthesis_run
    from safereach.solver import smtlib

    streams: dict = {}  # by endpoint, which it keeps alive
    send = smtlib._SmtProcess.send

    def recording_send(proc, command):
        streams.setdefault(proc, []).append(command)
        send(proc, command)

    monkeypatch.setattr(smtlib._SmtProcess, "send", recording_send)
    for model, b_init, objective, horizon in problems:
        synthesis_run(model, b_init, objective, SynthesisConfig(horizon=horizon, backend="smtlib"))
    monkeypatch.undo()
    return list(streams.values())


class Replay:
    """Feeds commands to one long-lived session and keeps the live
    declarations and assertions; :meth:`check` answers a check on both it
    and a fresh session given only those, with no push or pop."""

    def __init__(self) -> None:
        self.session = Session()
        self.frames: list[list] = [[]]

    def feed(self, command) -> None:
        head = command[0]
        if head in ("declare-const", "assert"):
            self.frames[-1].append(command)
        elif head == "push":
            self.frames.extend([] for _ in range(command[1]))
        elif head == "pop":
            del self.frames[len(self.frames) - command[1]:]
        elif head == "reset":
            self.frames = [[]]
        assert ask(self.session, [command]) == []  # no command of these is answered

    def check(self) -> list:
        """The long-lived session's verdict and model, which must be the fresh one's."""
        answers = ask(self.session, CHECK_AND_MODEL)
        live = [command for frame in self.frames for command in frame]
        assert answers == ask(Session(), [*live, *CHECK_AND_MODEL]), live[-3:]
        return answers


def probe_after_sat(replay: Replay, model) -> bool:
    """After a sat check: an assertion its model still satisfies must give
    that model again, and a check after a pop must be the fresh one's.  In
    between, a pushed frame asserts what the model violates: True when that
    frame still has a model."""
    ints = [(name, value) for _, name, _, sort, value in model if sort == "Int"]
    if not ints:
        return False
    name, value = ints[-1]
    assert value >= 0  # a selector, which the encoder bounds below by 0
    replay.feed(("assert", ("<=", 0, name)))
    assert replay.check() == ["sat", model]
    replay.feed(("push", 1))
    replay.feed(("assert", ("<", value, name)))
    moved = replay.check()[0] == "sat"
    replay.feed(("pop", 1))
    assert replay.check() == ["sat", model]
    return moved


def test_a_long_lived_session_answers_every_check_as_a_fresh_one(monkeypatch):
    """The commands ``bps`` sends, on seeds 0-399 and kitchen 2x2 det h4 and
    3x2 det h3: at every check, the session that kept its frames' root
    propagation, and resumes after a sat answer, gives the verdict and model
    of a fresh session given the live commands alone.  Each sat answer is
    also probed (:func:`probe_after_sat`)."""
    import random

    from oracles import random_instance

    from safereach.domains import kitchen_rung

    problems = [random_instance(random.Random(seed)) for seed in range(400)]
    problems += [(*kitchen_rung("2x2-M1-det"), 4), (*kitchen_rung("3x2-M1-det"), 3)]
    checks = probes = moved = 0
    for stream in bps_streams(problems, monkeypatch):
        replay = Replay()
        for command in stream:
            if command == ("check-sat",):
                checks += 1
                verdict, model = replay.check()
                if verdict == "sat":
                    probes += 1
                    moved += probe_after_sat(replay, model)
            elif command != ("get-model",):
                replay.feed(command)
    assert checks > 500 and probes > 100 and moved > 10, (checks, probes, moved)


def test_a_search_cut_off_by_its_deadline_leaves_the_session_sound(monkeypatch):
    """A check whose deadline passes mid-search unwinds the trail to the top
    frame's root, and the same session, given a new deadline, then answers
    the check as a fresh session does."""
    from safereach.core import RunContext
    from safereach.domains import kitchen_rung
    from safereach.encoding import Goal, Initial, Transition
    from safereach.solver import smtlib

    model, b_init, objective = kitchen_rung("2x2-M1-det")
    run = RunContext(model, objective)
    commands = []
    for constraint in (Initial(0, b_init), Transition(1), Transition(2)):
        commands += smtlib._declarations(constraint, len(model.states))
        commands.append(("assert", smtlib.lower(constraint, run)))
        if isinstance(constraint, Transition):
            commands.append(("assert", smtlib._chain(constraint.step, 0, len(model.states),
                                                     objective)))
    commands += [smtlib.PUSH, ("assert", smtlib.lower(Goal(0, 2), run))]
    session = Session()
    assert ask(session, commands) == []
    check_deadline = Search._check_deadline
    cut_at = []  # the trail's levels above the root where the deadline passed

    def expiring(search):
        if search.nodes and len(search.trail) - len(search.frames) == 2:
            cut_at.append(len(search.trail) - len(search.frames))
            search.deadline = time.monotonic() - 1
        check_deadline(search)

    monkeypatch.setattr(Search, "_check_deadline", expiring)
    with pytest.raises(TimeoutError):
        ask(session, [smtlib.CHECK_SAT], time.monotonic() + 60)
    monkeypatch.undo()
    search = session.search
    assert cut_at == [2] and len(search.trail) == len(search.frames) == 2

    fresh = Session()
    answers = ask(fresh, [*commands, *CHECK_AND_MODEL])
    assert answers[0] == "sat"
    assert (search.env, search.satisfied) == (fresh.search.env, fresh.search.satisfied)
    assert ask(session, CHECK_AND_MODEL, time.monotonic() + 60) == answers


# --------------------------------------------------------------------------
# The encoder's output stays on the compiled path
# --------------------------------------------------------------------------

def _encoder_traffic():
    """``(run, constraints, path)`` for pickup, kitchen 2x2 det and noisy and
    20 random instances: every kind of constraint the encoder lowers over
    steps 0..2, and the first two-step path of the oracle's enumeration as
    ``(actions, observations, beliefs)``.  Of the two lemmas, one has
    eligible steps and one lowers to ``true``."""
    import random

    from oracles import enumerate_plans, random_instance

    from safereach import build_pickup_example
    from safereach.core import RunContext
    from safereach.domains import kitchen_rung
    from safereach.encoding import DeadAction, Goal, Initial, Transition

    rng = random.Random(7)
    problems = [build_pickup_example(), kitchen_rung("2x2-M1-det"), kitchen_rung("2x2-M1-noisy"),
                *(random_instance(rng)[:3] for _ in range(20))]
    assert any(model.availability is not None for model, _, _ in problems)
    for model, b_init, objective in problems:
        actions, observations, beliefs = path = next(enumerate_plans(model, b_init, 2))
        constraints = (Initial(0, b_init), Transition(1), Transition(2), Goal(0, 2),
                       DeadAction(beliefs[1], actions[1], 2, observations[1]),
                       DeadAction(b_init, 0, 0, 0))
        yield RunContext(model, objective), constraints, path


def _chains(run) -> list:
    """The chains the transitions into steps 1 and 2 define, from step 0."""
    from safereach.solver import smtlib

    return [smtlib._chain(step, 0, len(run.model.states), run.objective) for step in (1, 2)]


def test_the_encoders_traffic_stays_compiled():
    """Every conjunct ``smtlib.lower`` writes is compiled: none is outside
    the fragment, which would make every check answer unknown.  An encoder
    change that writes a new operator fails here until the compiler learns
    it."""
    from safereach.solver import smtlib

    outside = []
    for run, constraints, _ in _encoder_traffic():
        terms = [smtlib.lower(constraint, run, (0, 2)) for constraint in constraints]
        for term in terms + _chains(run):
            outside.extend(c for c in refsolver.compile_assertion(term) if c.test is None)
    assert outside == []


def test_the_encoders_terms_and_their_text_are_one_problem():
    """Each command the driver sends renders to text that parses back to a
    term with the same text.  An assertion compiles, from its term as the
    bundled solver is handed it and from its text as a solver process reads
    it, to conjuncts with the same names, integer bounds and values on the
    oracle's path, where the unfolding and its chains hold."""
    from oracles import satisfies_bounded, transition_env

    from safereach.solver import smtlib

    def conjuncts(term, env):
        return [(c.names, c.bound, c.test(env)) for c in refsolver.compile_assertion(term)]

    commands = [*smtlib.HEADER, smtlib.PUSH, smtlib.POP, smtlib.CHECK_SAT, smtlib.GET_MODEL,
                smtlib.RESET, smtlib.EXIT]
    lemma_forms = set()
    for run, constraints, (actions, observations, beliefs) in _encoder_traffic():
        env = {**transition_env(beliefs[0], beliefs[1], actions[0], observations[0],
                                run.model, 0, 1),
               **transition_env(beliefs[1], beliefs[2], actions[1], observations[1],
                                run.model, 1, 2)}
        for step in (1, 2):  # the chain's flags, from first principles
            env[f"p_{step}"] = all(map(run.objective.is_safe, beliefs[:step]))
            env[f"f_{step}"] = satisfies_bounded(beliefs[:step + 1], run.objective)
        values = []
        terms = [smtlib.lower(constraint, run, (0, 2)) for constraint in constraints]
        for term in terms + _chains(run):
            assertion = ("assert", term)
            text = render(assertion)
            assert render(parse(text)) == text
            from_term = conjuncts(assertion[1], env)
            assert conjuncts(parse(text)[1], env) == from_term, text
            values.append([value for _, _, value in from_term])
        for constraint in constraints:
            commands.extend(smtlib._declarations(constraint, len(run.model.states)))
        initial, first, second, goal, eligible, true, *chains = values
        assert all(initial + first + second) and chains == [[True, True]] * 2
        assert goal == [satisfies_bounded(beliefs, run.objective)]
        lemma_forms.add((len(eligible), tuple(true)))
    assert {count for count, _ in lemma_forms} == {2} and {t for _, t in lemma_forms} == {(True,)}
    for command in commands:
        text = render(command)
        assert render(parse(text)) == text
    assert [render(command) for command in commands[:8]] == [
        "(set-option :produce-models true)", "(set-logic QF_NIRA)", "(push 1)", "(pop 1)",
        "(check-sat)", "(get-model)", "(reset)", "(exit)"]


# --------------------------------------------------------------------------
# The variables each compiled conjunct is watched on
# --------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(fragment_terms, terms), st.one_of(fragment_terms, terms))
def test_compiled_names_are_the_conjuncts_variables(left, right):
    """The one compiling walk meets every variable of a compiled conjunct,
    those of selector conditions included."""
    assertion = ("and", left, ("=", left, right))
    for constraint, part in zip(refsolver.compile_assertion(assertion),
                                refsolver._conjuncts(assertion, []), strict=True):
        if constraint.test is not None:
            assert constraint.names == sorted(term_vars(part, set())), part


def test_an_interpreted_terms_variables_wake_its_equation():
    """``(- i)`` over a variable is outside the fragment, so no equation
    over it is searched: the check answers unknown."""
    lines = run_script("(declare-const i Int)(declare-const y Real)(assert (<= 0 i))"
                       "(assert (< i 3))(assert (= y (- i)))(assert (< y (- 0.5)))"
                       "(check-sat)(get-model)")
    assert lines == ["unknown", '(error "no model available")']
