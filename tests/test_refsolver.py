"""Unit tests for the bundled SMT-LIB reference solver, driven in-process."""

from __future__ import annotations

import io
from fractions import Fraction as F

import pytest

from safereach.refsolver import (
    CommandReader,
    Search,
    Session,
    evaluate,
    format_value,
    intern_term,
    parse_tokens,
    solve_equation,
    tokenize,
)


def run_script(script: str) -> list[str]:
    out = io.StringIO()
    Session().loop(io.StringIO(script), out)
    return [line for line in out.getvalue().splitlines() if line]


def test_tokenizer_handles_comments_and_strings():
    tokens = tokenize('(echo "hi there") ; trailing comment\n(exit)')
    assert tokens == ["(", "echo", '"hi there"', ")", "(", "exit", ")"]


def test_parser_round_trip():
    tokens = tokenize("(assert (= x (+ 1 2)))")
    tree, consumed = parse_tokens(tokens, 0)
    assert tree == ("assert", ("=", "x", ("+", "1", "2")))
    assert consumed == len(tokens)


def test_command_reader_spans_lines():
    reader = CommandReader(io.StringIO("(assert\n (= x\n 1))\n(check-sat)\n"))
    assert reader.next_command() == ("assert", ("=", "x", "1"))
    assert reader.next_command() == ("check-sat",)
    assert reader.next_command() is None


def test_three_valued_evaluation():
    env = {"x": F(1, 2)}
    assert evaluate(intern_term(("<", "x", "1.0")), env) is True
    assert evaluate(intern_term(("<", "y", "1.0")), env) is None
    assert evaluate(intern_term(("and", ("<", "x", "1.0"), ("<", "y", "1.0"))), env) is None
    assert evaluate(intern_term(("and", ("<", "1.0", "x"), ("<", "y", "1.0"))), env) is False
    assert evaluate(intern_term(("or", ("<", "x", "1.0"), ("<", "y", "1.0"))), env) is True
    assert evaluate(intern_term(("*", "0.0", "y")), env) == 0


def test_equation_solving_forms():
    env = {"d": F(1, 4), "u": F(1, 8)}
    # bare variable
    assert solve_equation(intern_term("x"), intern_term("2.0"), env) == ("x", F(2))
    # product with one unknown: b * d = u  =>  b = 1/2
    outcome = solve_equation(intern_term(("*", "b", "d")), intern_term("u"), env)
    assert outcome == ("b", F(1, 2))
    # sum with one unknown
    outcome = solve_equation(intern_term(("+", "d", "z")), intern_term("1.0"), env)
    assert outcome == ("z", F(3, 4))


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
(declare-const x Bool)
""")
    assert lines[0].startswith("(error")
    # An unterminated quote is answered, not a crash of the command loop.
    assert run_script("(declare-const |x Int)\n(check-sat)\n") \
        == ['(error "unterminated quoted symbol")']
    assert run_script('(echo "hi)\n') == ['(error "unterminated string literal")']


def test_malformed_assertions_answer_errors_and_the_session_goes_on():
    lines = run_script("""
(declare-const x Int)
(assert (= x 1abc))
(assert (not))
(assert (ite (= x 1) true))
(assert (<= 0 x))
(assert (< x 2))
(check-sat)
""")
    assert lines == ["(error \"malformed numeral '1abc'\")",
                     "(error \"wrong number of arguments to 'not'\")",
                     "(error \"wrong number of arguments to 'ite'\")",
                     "sat"]


@pytest.mark.parametrize("command", [
    "(push x)", "(assert)", "(declare-const)", "(declare-fun f)", "(get-info)", "(echo)",
    "(push -1)", "(pop -1)",
])
def test_malformed_command_answers_an_error_and_the_session_goes_on(command):
    head = command[1:].split()[0].rstrip(")")
    assert run_script(f"{command}\n(check-sat)\n") \
        == [f'(error "wrong arguments to {head}")', "sat"]


def test_implication_is_right_associative():
    # (=> a b c) is (=> a (=> b c)); read as binary, the first case says true.
    assert evaluate(intern_term(("=>", "true", "true", "false")), {}) is False
    assert evaluate(intern_term(("=>", "false", "true", "false")), {}) is True
    assert evaluate(intern_term(("=>", "true", "true", "x")), {}) is None
    assert evaluate(intern_term(("=>", "y", "true", "true")), {}) is True
    lines = run_script("""
(declare-const x Int)
(assert (<= 0 x))
(assert (<= x 1))
(assert (=> true true false))
(check-sat)
""")
    assert lines == ["unsat"]


def test_format_value_shapes():
    assert format_value(3, "Int") == "3"
    assert format_value(-3, "Int") == "(- 3)"
    assert format_value(F(1), "Real") == "1.0"
    assert format_value(F(2, 7), "Real") == "(/ 2.0 7.0)"
    assert format_value(F(-2, 7), "Real") == "(- (/ 2.0 7.0))"
    assert format_value(3, "Real") == "3.0"
    assert format_value(-3, "Real") == "(- 3.0)"


def test_search_fills_unconstrained_variables():
    decls = {"x": "Real"}
    verdict, model = Search(decls, []).run()
    assert verdict == "sat"
    assert model["x"] == 0
