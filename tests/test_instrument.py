import hashlib
import pickle
import random

import pytest

from armloop.dsl import CallStmt, ParallelStmt, parse, to_text
from armloop.dsl.ast import Args, Program, SubgoalBlock
from armloop.errors import CapTooSmallError
from armloop.instrument import insert_observations, phi
from armloop.scene import load_task_spec

from conftest import TASK_NAMES, TASKS_DIR, one_trial, program_path, random_call, random_program, strip_observes, task_path


def _observe_names(program):
    return [
        s.args["step_name"]
        for s in program.walk()
        if isinstance(s, CallStmt) and s.name == "observe"
    ]


def test_phi_table():
    rng = random.Random(0)
    for name in ("grasp_actor", "place_actor", "open_gripper", "close_gripper",
                 "move_by_displacement", "back_to_origin"):
        assert phi(random_call(rng, name)) is True
    assert phi(random_call(rng, "observe")) is False


def test_phi_parallel_child_disjunction():
    rng = random.Random(1)
    visible = ParallelStmt([random_call(rng, "back_to_origin", arm="left")],
                           [random_call(rng, "back_to_origin", arm="right")])
    assert phi(visible) is True
    blind = ParallelStmt([random_call(rng, "observe")], [random_call(rng, "observe")])
    assert phi(blind) is False


def test_place_shoe_fixture_gets_seven_observes():
    program = parse(program_path("place_shoe", "correct").read_text())
    instrumented = insert_observations(program, cap=10)
    names = _observe_names(instrumented)
    assert len(names) == 7
    assert names[0] == "initial_scene_state"
    assert names[-1] == "final_scene_state"
    # Interior hooks numbered densely from 2 and named after the operation.
    assert names[1:-1] == [
        "step2_grasp_actor",
        "step3_move_by_displacement",
        "step4_place_actor",
        "step5_move_by_displacement",
        "step6_back_to_origin",
    ]


def test_boundary_hooks_first_and_last():
    program = parse(program_path("place_shoe", "correct").read_text())
    instrumented = insert_observations(program, cap=10)
    first = instrumented.subgoals[0].statements[0]
    last = instrumented.subgoals[-1].statements[-1]
    assert first.name == "observe" and first.args["step_name"] == "initial_scene_state"
    assert last.name == "observe" and last.args["step_name"] == "final_scene_state"


def test_cap_thinning_keeps_grasp_and_place():
    rng = random.Random(2)
    # 20 visible statements: 6 grasp/place, 14 motions.
    ops = ["grasp_actor"] * 3 + ["move_by_displacement"] * 14 + ["place_actor"] * 3
    stmts = [random_call(rng, op, stmt_id=i) for i, op in enumerate(ops, start=1)]
    program = Program("t", [SubgoalBlock("s", stmts)])
    instrumented = insert_observations(program, cap=10)
    names = _observe_names(instrumented)
    assert len(names) == 10
    kept_ops = [n.split("_", 1)[1] for n in names[1:-1]]
    assert kept_ops.count("grasp_actor") == 3
    assert kept_ops.count("place_actor") == 3
    # The two remaining interior slots go to the earliest motions.
    assert kept_ops.count("move_by_displacement") == 2
    stmt_list = instrumented.subgoals[0].statements
    move_hooks = [
        i for i, s in enumerate(stmt_list)
        if isinstance(s, CallStmt) and s.name == "observe"
        and "move" in s.args["step_name"]
    ]
    first_moves = [
        i for i, s in enumerate(stmt_list)
        if isinstance(s, CallStmt) and s.name == "move_by_displacement"
    ][:2]
    assert [i - 1 for i in move_hooks] == first_moves


def test_idempotence_and_observe_stripping():
    program = parse(program_path("place_shoe", "correct").read_text())
    once = insert_observations(program, cap=10)
    twice = insert_observations(once, cap=10)
    assert once == twice


def test_originals_preserved_modulo_observes():
    rng = random.Random(3)
    for _ in range(30):
        program = random_program(rng)
        instrumented = insert_observations(program, cap=10)
        assert strip_observes(instrumented) == strip_observes(program)


def test_cap_bounds_on_generated_programs():
    rng = random.Random(4)
    for _ in range(50):
        program = random_program(rng, max_subgoals=4, max_stmts=8)
        instrumented = insert_observations(program, cap=10)
        n = len(_observe_names(instrumented))
        assert 2 <= n <= 10


def test_cap_too_small():
    program = parse(program_path("place_shoe", "correct").read_text())
    with pytest.raises(CapTooSmallError):
        insert_observations(program, cap=2)


def test_grasp_place_coverage_when_cap_permits():
    rng = random.Random(5)
    for _ in range(20):
        program = random_program(rng, max_subgoals=2, max_stmts=3)
        instrumented = insert_observations(program, cap=30)
        for sg in instrumented.subgoals:
            stmts = sg.statements
            for i, stmt in enumerate(stmts):
                if isinstance(stmt, CallStmt) and stmt.name in ("grasp_actor", "place_actor"):
                    nxt = stmts[i + 1]
                    assert isinstance(nxt, CallStmt) and nxt.name == "observe"


def test_roundtrip_of_instrumented_text():
    program = parse(program_path("place_shoe", "correct").read_text())
    instrumented = insert_observations(program, cap=10)
    assert parse(to_text(instrumented)) == instrumented


def _robot_calls(program) -> list:
    return [s for s in program.walk() if isinstance(s, CallStmt) and s.name != "observe"]


def test_instrumented_programs_parse_back_and_leave_their_input_alone():
    """Over seeded random programs and the bundled ones at caps 3 to 14: the
    output's ids run 1, 2, ... in walk order, it parses back to itself with
    the same ids, its calls share the input's argument maps, and the input's
    text, ids and lines are as before."""
    rng = random.Random(5)
    programs = [random_program(rng, max_subgoals=4, max_stmts=8) for _ in range(200)]
    programs += [parse(path.read_text()) for path in sorted(TASKS_DIR.glob("*/*.prog"))]
    for program in programs:
        before = (to_text(program), [(s.id, s.line) for s in program.walk()])
        calls = _robot_calls(program)
        for cap in range(3, 15):
            out = insert_observations(program, cap)
            ids = [s.id for s in out.walk()]
            assert ids == list(range(1, len(ids) + 1))
            back = parse(to_text(out))
            assert back == out and [s.id for s in back.walk()] == ids, to_text(out)
            kept = _robot_calls(out)
            assert len(kept) == len(calls) and all(a.args is b.args for a, b in zip(kept, calls))
        assert (to_text(program), [(s.id, s.line) for s in program.walk()]) == before


def test_instrumented_program_shares_its_inputs_argument_maps_and_neither_can_be_written():
    """Instrumenting copies no argument map: the output's calls hold their
    input's maps, which is safe because no write goes through either."""
    for path in sorted(TASKS_DIR.glob("*/*.prog")):
        program = parse(path.read_text())
        out = insert_observations(program, cap=10)
        before = to_text(program), to_text(out)
        pairs = list(zip(_robot_calls(program), _robot_calls(out), strict=True))
        assert pairs and all(a.args is b.args for a, b in pairs), path
        for a, _ in pairs:
            with pytest.raises(TypeError):
                a.args["arm"] = "right"
            with pytest.raises(TypeError):
                a.args.update(arm="right")
        for p in (program, out):
            with pytest.raises(TypeError):
                p.subgoals[0].statements[0] = p.subgoals[0].statements[-1]
        assert (to_text(program), to_text(out)) == before, path


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_instrumented_program_pickles_to_an_equal_read_only_value(protocol):
    """A candidate's final program crosses a worker's pipe pickled: the copy
    is equal, hashes equal, keeps ids and lines, and its maps stay read-only."""
    rng = random.Random(41)
    programs = [parse(path.read_text()) for path in sorted(TASKS_DIR.glob("*/*.prog"))]
    programs += [random_program(rng, max_subgoals=4, max_stmts=8) for _ in range(20)]
    for program in programs:
        out = insert_observations(program, cap=10)
        back = pickle.loads(pickle.dumps(out, protocol))
        assert back == out and hash(back) == hash(out) and repr(back) == repr(out)
        assert [(s.id, s.line) for s in back.walk()] == [(s.id, s.line) for s in out.walk()]
        for call in _robot_calls(back):
            assert type(call.args) is Args
            with pytest.raises(TypeError):
                call.args["arm"] = "right"


def _subgoal_places(program) -> dict:
    return {s.id: k for k, sg in enumerate(program.subgoals, start=1) for s in Program("", [sg]).walk()}


def test_each_event_carries_its_subgoals_place():
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            places = _subgoal_places(program)
            events = one_trial(program, spec, 0).events
            assert events and all(ev.subgoal_index == places[ev.stmt_id] for ev in events), (task, kind)
    # An empty subgoal still counts: the third subgoal's call is in subgoal 3.
    program = insert_observations(parse('program place_shoe\nsubgoal "a"\n  grasp_actor(shoe, left)\n'
                                        'subgoal "b"\n  observe("look")\nsubgoal "c"\n  back_to_origin(left)\n'), cap=10)
    assert program.subgoals[1].statements == ()
    events = one_trial(program, load_task_spec(task_path("place_shoe")), 0).events
    assert [(ev.op_name, ev.subgoal_index) for ev in events] == [("grasp_actor", 1), ("back_to_origin", 3)]


def test_hooks_of_generated_programs_at_every_cap():
    """The thinning order and the step names over seeded random programs at
    caps 3 to 14, pinned by a digest of the instrumented text and of each
    statement's (id, line)."""
    rng = random.Random(2028)
    digest = hashlib.sha256()
    for _ in range(300):
        program = random_program(rng, max_subgoals=3, max_stmts=6)
        for cap in range(3, 15):
            out = insert_observations(program, cap)
            digest.update(to_text(out).encode())
            digest.update(repr([(s.id, s.line) for s in out.walk()]).encode())
    assert digest.hexdigest() == "58de8a3ee31f1ed17d84c96026b51afb1c923bce6c736efa1f12dcdf4387d189"
