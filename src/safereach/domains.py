"""Built-in benchmark models: the pick-up choice and the kitchen grid.

Both builders produce exact-rational models that pass every construction
invariant, plus the matching initial belief and safe-reachability objective.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .core import (
    Belief,
    LinearBeliefPredicate,
    ModelError,
    Pomdp,
    SafeReachObjective,
    as_fraction,
)

Cell = tuple[int, int]

F = Fraction


def build_pickup_example() -> tuple[Pomdp, Belief, SafeReachObjective]:
    """Three-state pick-up model: choose the left or right hand.

    From the ready state, the left hand reaches the goal with probability
    9/10 (collision 1/10) but its observations are informative enough that
    the bad branch becomes certain-looking; the right hand reaches the goal
    with probability 17/20 (collision 1/10, no-op 1/20) with identical
    observation mix on every outcome.  Collision and goal states absorb.
    The objective asks for goal mass above 4/5 while keeping collision mass
    below 1/5.

    The observation function is keyed by (landing state, action), so the
    rows for reachable landings carry the informative probabilities; the
    null observation pads the rows no execution can reach.
    """
    states = ("s_ready", "s_unsafe", "s_goal")
    actions = ("pick_left", "pick_right")
    observations = ("o_pos", "o_neg", "o_null")
    READY, UNSAFE, GOAL = 0, 1, 2
    LEFT, RIGHT = 0, 1
    POS, NEG, NULL = 0, 1, 2

    transition = {
        (READY, LEFT): {UNSAFE: F(1, 10), GOAL: F(9, 10)},
        (READY, RIGHT): {READY: F(1, 20), UNSAFE: F(1, 10), GOAL: F(17, 20)},
        (UNSAFE, LEFT): {UNSAFE: F(1)},
        (UNSAFE, RIGHT): {UNSAFE: F(1)},
        (GOAL, LEFT): {GOAL: F(1)},
        (GOAL, RIGHT): {GOAL: F(1)},
    }
    observe = {
        (READY, LEFT): {NULL: F(1)},  # unreachable; padding keeps Z total
        (UNSAFE, LEFT): {POS: F(3, 10), NEG: F(7, 10)},
        (GOAL, LEFT): {POS: F(4, 5), NEG: F(1, 5)},
        (READY, RIGHT): {POS: F(4, 5), NEG: F(1, 5)},
        (UNSAFE, RIGHT): {POS: F(4, 5), NEG: F(1, 5)},
        (GOAL, RIGHT): {POS: F(4, 5), NEG: F(1, 5)},
    }
    model = Pomdp(states, actions, observations, transition, observe)
    b_init = Belief.point(READY, 3)
    objective = SafeReachObjective(
        goal=(LinearBeliefPredicate(frozenset({GOAL}), ">", F(4, 5)),),
        safe=(LinearBeliefPredicate(frozenset({UNSAFE}), "<", F(1, 5)),),
    )
    return model, b_init, objective


# --------------------------------------------------------------------------
# Kitchen grid
# --------------------------------------------------------------------------

MOVE_DIRS = (("move_north", (0, 1)), ("move_south", (0, -1)),
             ("move_west", (-1, 0)), ("move_east", (1, 0)))
LOOK_DIRS = (("look_north", (0, 1)), ("look_south", (0, -1)),
             ("look_west", (-1, 0)), ("look_east", (1, 0)))


def _state_name(cell: Cell, obstacles: tuple[Cell, ...], holding: bool, collided: bool) -> str:
    obs = "+".join(f"{x}.{y}" for x, y in obstacles) or "none"
    return f"r{cell[0]}.{cell[1]}|obs{obs}|{'hold' if holding else 'emp'}|{'col' if collided else 'ok'}"


def build_kitchen(
    width: int,
    height: int,
    shadow_cells: Sequence[Cell],
    storage_cell: Cell,
    start_cell: Cell,
    obstacles: int = 1,
    p_fail: object = F(1, 20),
    p_fp: object = F(1, 50),
    p_fn: object = F(1, 20),
    delta1: object = F(1, 5),
    delta2: object = F(1, 5),
) -> tuple[Pomdp, Belief, SafeReachObjective]:
    """Grid navigation with uncertain obstacles and a final pick-up.

    The joint state is (robot cell, obstacle placement, hand status,
    collision flag).  Four move actions (fail in place with ``p_fail``),
    four look actions observing the adjacent cell (false positive ``p_fp``,
    false negative ``p_fn``), and the two pick-up hands from the pick-up
    example, available only at the storage cell.  Entering an occupied cell
    sets the absorbing collision flag; holding the cup absorbs too.  The
    initial belief is the start cell with a uniform obstacle placement.
    Only states reachable from the initial support are kept.
    :data:`KITCHEN_LADDER` names the kitchens that tests and demos run.
    """
    for size, label in ((width, "width"), (height, "height")):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ModelError(f"{label} must be an integer >= 1, got {size!r}")
    p_fail, p_fp, p_fn = as_fraction(p_fail), as_fraction(p_fp), as_fraction(p_fn)
    delta1, delta2 = as_fraction(delta1), as_fraction(delta2)
    for p, label in ((p_fail, "p_fail"), (p_fp, "p_fp"), (p_fn, "p_fn")):
        if not 0 <= p < 1:
            raise ModelError(f"{label} must lie in [0, 1), got {p}")
    for delta, label in ((delta1, "delta1"), (delta2, "delta2")):
        if not 0 <= delta <= 1:
            raise ModelError(f"{label} must lie in [0, 1], got {delta}")
    cells = {(x, y) for x in range(width) for y in range(height)}
    shadow = tuple(dict.fromkeys(tuple(c) for c in shadow_cells))
    for cell, label in ((tuple(storage_cell), "storage"), (tuple(start_cell), "start")):
        if cell not in cells:
            raise ModelError(f"{label} cell {cell} is outside the {width}x{height} grid")
    if any(c not in cells for c in shadow):
        raise ModelError("shadow cells must lie on the grid")
    if isinstance(obstacles, bool) or not isinstance(obstacles, int):
        raise ModelError(f"obstacles must be an integer, got {obstacles!r}")
    if obstacles < 0:
        raise ModelError(f"obstacles must be non-negative, got {obstacles}")
    if obstacles > len(shadow):
        raise ModelError(f"cannot place {obstacles} obstacles in {len(shadow)} shadow cells")
    start_cell, storage_cell = tuple(start_cell), tuple(storage_cell)
    if start_cell in shadow:
        raise ModelError("the start cell may not be a shadow cell")

    placements = tuple(combinations(shadow, obstacles))

    actions = tuple(name for name, _ in MOVE_DIRS) + tuple(name for name, _ in LOOK_DIRS) \
        + ("pick_left", "pick_right")
    observations = ("o_pos", "o_neg", "o_null")
    POS, NEG, NULL = 0, 1, 2
    pick_left_i = actions.index("pick_left")
    pick_right_i = actions.index("pick_right")

    State = tuple[Cell, tuple[Cell, ...], bool, bool]

    def successors(state: State, action_i: int):
        """(successor, transition prob, observation dist) triples."""
        cell, placement, holding, collided = state
        name = actions[action_i]
        null_obs = {NULL: F(1)}
        if collided or holding:
            yield state, F(1), null_obs
            return
        if name.startswith("move_"):
            dx, dy = dict(MOVE_DIRS)[name]
            target = (cell[0] + dx, cell[1] + dy)
            if target not in cells:
                yield state, F(1), null_obs
                return
            hit = target in placement
            moved: State = (target, placement, False, hit)
            if p_fail:
                yield state, p_fail, null_obs
            yield moved, 1 - p_fail, null_obs
            return
        if name.startswith("look_"):
            dx, dy = dict(LOOK_DIRS)[name]
            target = (cell[0] + dx, cell[1] + dy)
            occupied = target in placement
            if occupied:
                dist = {POS: 1 - p_fn, NEG: p_fn}
            else:
                dist = {POS: p_fp, NEG: 1 - p_fp}
            yield state, F(1), {o: p for o, p in dist.items() if p}
            return
        # pick-up hands, same sub-model as build_pickup_example
        informative = {POS: F(4, 5), NEG: F(1, 5)}
        crashed: State = (cell, placement, False, True)
        held: State = (cell, placement, True, False)
        if name == "pick_left":
            yield crashed, F(1, 10), {POS: F(3, 10), NEG: F(7, 10)}
            yield held, F(9, 10), informative
        else:
            yield state, F(1, 20), informative
            yield crashed, F(1, 10), informative
            yield held, F(17, 20), informative

    def allowed(state: State) -> frozenset[int]:
        if state[0] == storage_cell:
            return frozenset(range(len(actions)))
        return frozenset(range(len(actions))) - {pick_left_i, pick_right_i}

    # Reachability sweep from the initial support.
    initial_states: list[State] = [
        (start_cell, pl, False, False) for pl in placements
    ]
    discovered: dict[State, None] = dict.fromkeys(initial_states)
    frontier = list(initial_states)
    while frontier:
        state = frontier.pop()
        for a in allowed(state):
            for succ, p, _dist in successors(state, a):
                if p and succ not in discovered:
                    discovered[succ] = None
                    frontier.append(succ)
    ordered = sorted(discovered)
    index = {state: i for i, state in enumerate(ordered)}

    transition: dict[tuple[int, int], dict[int, Fraction]] = {}
    observe: dict[tuple[int, int], dict[int, Fraction]] = {}
    availability: dict[int, frozenset[int]] = {}
    null_row = {NULL: F(1)}
    for state, s in index.items():
        availability[s] = allowed(state)
        for a in allowed(state):
            row: dict[int, Fraction] = {}
            for succ, p, dist in successors(state, a):
                row[index[succ]] = row.get(index[succ], F(0)) + p
                key = (index[succ], a)
                dist = dict(dist)
                existing = observe.get(key)
                if existing is None or existing == null_row:
                    # Z is keyed by (landing, action); when an absorbing
                    # self-loop shares a landing with an informative arrival,
                    # the informative row defines it.
                    observe[key] = dist
                elif dist != null_row and dist != existing:
                    raise ModelError(
                        f"conflicting observation rows for landing state "
                        f"{_state_name(*succ)} under {actions[a]}")
            transition[(s, a)] = row

    states = tuple(_state_name(*st) for st in ordered)
    model = Pomdp(states, actions, observations, transition, observe,
                  availability=availability)

    share = F(1, len(placements))
    probs = [F(0)] * len(ordered)
    for st in initial_states:
        probs[index[st]] = share
    b_init = Belief(tuple(probs))

    holding_set = frozenset(i for st, i in index.items() if st[2])
    collided_set = frozenset(i for st, i in index.items() if st[3])
    if not holding_set or not collided_set:
        raise ModelError("kitchen geometry admits no pick-up or no collision state")
    objective = SafeReachObjective(
        goal=(LinearBeliefPredicate(holding_set, ">", 1 - delta1),),
        safe=(LinearBeliefPredicate(collided_set, "<", delta2),),
    )
    return model, b_init, objective


# "det" turns all noise off; "sensor" only move failures, so looks keep the
# builder's false-positive and false-negative rates; "noisy" keeps every default.
KITCHEN_NOISE = {"det": {"p_fail": 0, "p_fp": 0, "p_fn": 0}, "sensor": {"p_fail": 0}, "noisy": {}}


class KitchenRung(NamedTuple):
    """A named kitchen (start (0, 0), default tolerances) and its enum rows."""

    width: int
    height: int
    shadow: tuple[Cell, ...]
    storage: Cell
    obstacles: int
    noise: str
    rows: tuple[tuple[int, bool, int], ...]  # (horizon, valid, checks)


def _columns(xs: Sequence[int], rows: int) -> tuple[Cell, ...]:
    return tuple((x, y) for x in xs for y in range(rows))


# Each verdict is an enum run's on a fresh model, its policy passed by the validator,
# and checks are its ``solver_calls``.  Brute force agreed with every row through
# 4x3-M2-det h5 once, when the table was written (see CHANGES.md), and not later ones.
KITCHEN_LADDER = {name: KitchenRung(*rung) for name, rung in {
    "2x2-M1-det": (2, 2, ((0, 1), (1, 1)), (1, 0), 1, "det", ((4, True, 6),)),
    "2x2-M1-noisy": (2, 2, ((0, 1), (1, 1)), (1, 0), 1, "noisy", ((4, False, 5),)),
    "3x2-M1-det": (3, 2, ((1, 0), (1, 1)), (2, 0), 1, "det", ((3, False, 4), (6, True, 29))),
    "3x2-M1-noisy": (3, 2, ((1, 0), (1, 1)), (2, 0), 1, "noisy", ((6, False, 7),)),
    "3x2-M1-sensor": (3, 2, ((1, 0), (1, 1)), (2, 0), 1, "sensor",
                      ((5, False, 27), (7, False, 164), (8, False, 345))),
    "3x3-M1-det": (3, 3, _columns([1], 3), (2, 0), 1, "det", ((7, True, 32),)),
    "3x3-M1-sensor-detour": (3, 3, ((1, 0), (1, 1)), (2, 0), 1, "sensor", ((7, True, 57),)),
    "4x3-M2-det": (4, 3, ((1, 0), (1, 1), (2, 1), (2, 2)), (3, 0), 2, "det",
                   ((5, False, 15), (7, False, 32), (9, False, 131))),
    "4x3-M2-sensor-detour": (4, 3, _columns([1, 2], 2), (3, 0), 2, "sensor", ((8, True, 33),)),
    "4x4-M1-det": (4, 4, _columns([1, 2], 4), (3, 0), 1, "det", ((9, True, 333),)),
    "5x3-M1-det": (5, 3, _columns([1, 2, 3], 3), (4, 0), 1, "det", ((10, True, 1009),)),
    "5x4-M2-sensor-detour": (5, 4, _columns([1, 3], 3), (4, 0), 2, "sensor", ((11, True, 482),)),
}.items()}


def kitchen_rung(name: str) -> tuple[Pomdp, Belief, SafeReachObjective]:
    """A freshly built model, initial belief and objective for a ladder rung."""
    rung = KITCHEN_LADDER[name]
    return build_kitchen(rung.width, rung.height, rung.shadow, rung.storage, (0, 0),
                         rung.obstacles, **KITCHEN_NOISE[rung.noise])
