import random

import pytest

from armloop.dsl import (
    CallStmt,
    ParallelStmt,
    count_tokens,
    parse,
    to_text,
    validate,
)
from armloop.dsl.ast import FpRef, Program, SubgoalBlock
from armloop.errors import BadArgError, DslSyntaxError, UnknownApiError
from armloop.metrics import flatten, program_tree

from conftest import program_path, random_program


def test_place_shoe_fixture_shape(place_shoe_spec):
    text = program_path("place_shoe", "correct").read_text()
    program = parse(text)
    assert program.task_name == "place_shoe"
    assert len(program.subgoals) == 2
    assert sum(1 for _ in program.walk()) == 6
    place = next(s for s in program.walk() if s.name == "place_actor")
    assert place.args["constrain"] == "align"
    assert place.args["pre_dis_axis"] == "fp"
    assert place.args["functional_point_id"] == 0
    assert place.args["target"] == FpRef("target_block", 0)
    assert validate(program, place_shoe_spec) == []


def test_defaults_filled_in():
    program = parse('program t\nsubgoal "s"\n  grasp_actor(shoe, left)\n')
    grasp = next(iter(program.walk()))
    assert grasp.args["pre_grasp_dis"] == 0.1
    assert grasp.args["grasp_dis"] == 0.0
    assert grasp.args["gripper_pos"] == 0.0
    assert grasp.args["contact_point_id"] == "auto"


def test_missing_required_arg():
    with pytest.raises(BadArgError):
        parse('program t\nsubgoal "s"\n  grasp_actor(shoe)\n')


def test_unknown_api():
    with pytest.raises(UnknownApiError):
        parse('program t\nsubgoal "s"\n  fly_to_moon(left)\n')


def test_unknown_parameter():
    with pytest.raises(BadArgError):
        parse('program t\nsubgoal "s"\n  back_to_origin(left, speed=2)\n')


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parse('program t\nsubgoal "s"\n  grasp_actor(shoe,, left)\n')
    assert err.value.line == 3


def test_nested_parallel_rejected():
    text = (
        'program t\nsubgoal "s"\n'
        "  parallel {\n    parallel {\n      back_to_origin(left)\n    } {\n"
        "      back_to_origin(right)\n    }\n  } {\n    back_to_origin(right)\n  }\n"
    )
    with pytest.raises(DslSyntaxError):
        parse(text)


def test_comments_and_blank_lines_ignored():
    text = (
        "# header comment\nprogram t\n\n"
        'subgoal "s"  # trailing\n'
        "  back_to_origin(left)  # go home\n\n"
    )
    program = parse(text)
    assert len(program.subgoals) == 1


def test_monotone_ids_including_parallel():
    text = (
        'program t\nsubgoal "s"\n'
        "  back_to_origin(left)\n"
        "  parallel {\n    open_gripper(left)\n    close_gripper(left)\n  } {\n"
        "    open_gripper(right)\n  }\n"
        "  back_to_origin(right)\n"
    )
    program = parse(text)
    stmts = list(program.walk())
    ids = [s.id for s in stmts]
    assert ids == sorted(ids) == list(range(1, len(ids) + 1))
    par = next(s for s in stmts if isinstance(s, ParallelStmt))
    assert [s.id for s in par.left] == [3, 4]
    assert [s.id for s in par.right] == [5]


def test_token_count_examples():
    assert count_tokens("back_to_origin(left)") == 4
    assert count_tokens("back_to_origin(left)  # with comment") == 4
    text = program_path("place_shoe", "correct").read_text()
    # Hand count: 2 program header + 2+2 subgoal headers + calls of
    # 6, 8, 25, 4, 8, and 4 tokens.
    assert count_tokens(text) == 61


def test_node_count_empty_program():
    program = Program("t", [SubgoalBlock(1, "nothing", [])])
    assert len(flatten(program_tree(program))) == 3


def test_node_count_fixture():
    program = parse(program_path("place_shoe", "correct").read_text())
    # program + 2*(subgoal+description) + per-statement (1 + resolved args):
    # grasp 7, move 6, place 10, observe 2, move 6, back 2.
    assert len(flatten(program_tree(program))) == 1 + 4 + 7 + 6 + 10 + 2 + 6 + 2


def test_print_omits_defaults():
    program = parse('program t\nsubgoal "s"\n  grasp_actor(shoe, left, pre_grasp_dis=0.1)\n')
    assert to_text(program).splitlines()[2] == "  grasp_actor(shoe, left)"


def test_print_keeps_non_defaults():
    program = parse('program t\nsubgoal "s"\n  grasp_actor(shoe, left, grasp_dis=0.01)\n')
    assert "grasp_dis=0.01" in to_text(program)


def test_roundtrip_bundled_fixtures(tasks_dir):
    for prog_file in sorted(tasks_dir.glob("*/*.prog")):
        program = parse(prog_file.read_text())
        assert parse(to_text(program)) == program, prog_file


def test_roundtrip_generated_sample():
    rng = random.Random(99)
    for _ in range(50):
        program = random_program(rng)
        assert parse(to_text(program)) == program


def test_string_escapes_roundtrip():
    program = parse('program t\nsubgoal "with \\"quotes\\" and \\\\slash"\n  observe("a \\"b\\\\c")\n')
    assert program.subgoals[0].description == 'with "quotes" and \\slash'
    assert parse(to_text(program)) == program


# --- validator -----------------------------------------------------------------


def test_validate_unknown_actor(place_shoe_spec):
    program = parse('program t\nsubgoal "s"\n  grasp_actor(hammer, left)\n')
    diags = validate(program, place_shoe_spec)
    assert [d.code for d in diags] == ["unknown_actor"]


def test_validate_arm_conflict(place_shoe_spec):
    text = (
        'program t\nsubgoal "s"\n'
        "  parallel {\n    back_to_origin(left)\n  } {\n    open_gripper(left)\n  }\n"
    )
    diags = validate(parse(text), place_shoe_spec)
    assert [d.code for d in diags] == ["arm_conflict"]


def test_validate_unknown_point(place_shoe_spec):
    program = parse(
        'program t\nsubgoal "s"\n  place_actor(shoe, left, fp(target_block, 9))\n'
    )
    diags = validate(program, place_shoe_spec)
    assert [d.code for d in diags] == ["unknown_point"]


@pytest.mark.parametrize("stmt, messages", [
    ("grasp_actor(shoe, left, contact_point_id=3)", ["actor 'shoe' has no contact point 3"]),
    ("place_actor(shoe, left, fp(target_block, 9))",
     ["actor 'target_block' has no functional point 9"]),
    ("place_actor(shoe, left, fp(target_block, 9), functional_point_id=7)",
     ["actor 'shoe' has no functional point 7", "actor 'target_block' has no functional point 9"]),
    ("place_actor(shoe, left, fp(target_block, 0), functional_point_id=0)", []),
])
def test_validate_unknown_point_messages(place_shoe_spec, stmt, messages):
    diags = validate(parse(f'program t\nsubgoal "s"\n  {stmt}\n'), place_shoe_spec)
    assert [str(d) for d in diags] == [
        f"[unknown_point] stmt 1 (line 3): {message}" for message in messages]


def test_validate_observe_collision(place_shoe_spec):
    program = parse('program t\nsubgoal "s"\n  observe("a")\n  observe("a")\n')
    diags = validate(program, place_shoe_spec)
    assert [d.code for d in diags] == ["observe_collision"]


def test_validate_clean_fixture_empty(place_shoe_spec):
    program = parse(program_path("place_shoe", "correct").read_text())
    assert validate(program, place_shoe_spec) == []
