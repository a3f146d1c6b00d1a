import dataclasses
import operator
import random
import sys

import pytest

from armloop.dsl import (
    CallStmt,
    ParallelStmt,
    count_tokens,
    parse,
    to_text,
    validate,
)
from armloop.dsl.ast import Args, FpRef, Program, SubgoalBlock
from armloop.errors import BadArgError, DslSyntaxError, UnknownApiError
from armloop.metrics import flatten, program_tree

from conftest import TASKS_DIR, program_path, random_program


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


def test_parse_gives_dense_ids_in_walk_order(tasks_dir):
    """Ids run 1, 2, ... in walk order (a parallel block before its branches),
    as the generator draws them too."""
    rng = random.Random(29)
    generated = [random_program(rng, max_subgoals=4, max_stmts=8) for _ in range(100)]
    texts = [path.read_text() for path in sorted(tasks_dir.glob("*/*.prog"))] + [to_text(p) for p in generated]
    for text in texts:
        ids = [s.id for s in parse(text).walk()]
        assert ids == list(range(1, len(ids) + 1)), text
    for program in generated:
        assert [s.id for s in program.walk()] == [s.id for s in parse(to_text(program)).walk()]


def test_program_nodes_are_frozen():
    program = parse('program t\nsubgoal "s"\n  back_to_origin(left)\n'
                    "  parallel {\n    open_gripper(left)\n  } {\n    open_gripper(right)\n  }\n")
    call, block = program.subgoals[0].statements
    for node, name in [(program, "subgoals"), (program.subgoals[0], "statements"), (call, "id"), (call, "args"),
                       (block, "left"), (block, "id")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    # Nor through a nested container: the sequences are tuples and the
    # argument map refuses each of dict's mutators.
    for sequence in (program.subgoals, program.subgoals[0].statements, block.left, block.right):
        with pytest.raises(TypeError):
            sequence[0] = sequence[0]
    args = call.args
    for write in (lambda: operator.setitem(args, "arm", "right"), lambda: operator.delitem(args, "arm"), args.clear,
                  lambda: args.pop("arm"), args.popitem, lambda: args.setdefault("pos", 1.0),
                  lambda: args.update(arm="right"), lambda: args.update({"arm": "right"})):
        with pytest.raises(TypeError):
            write()
    with pytest.raises(TypeError):
        args |= {"arm": "right"}
    assert call.args == {"arm": "left"} and to_text(program).count("left") == 2


def test_equal_texts_parse_to_equal_hashes_that_key_a_dict():
    """Ids and source lines are left out of the hash as they are out of `==`:
    a program whose every line moved keys the same dict entry."""
    texts = [path.read_text() for path in sorted(TASKS_DIR.glob("*/*.prog"))]
    keyed = {parse(text): text for text in texts}
    assert len(keyed) == len(texts)
    for text in texts:
        moved = parse("# each statement one line lower\n" + text)
        assert hash(moved) == hash(parse(text)) and keyed[moved] == text
    # Argument maps hash by their items, not by the order of their keys.
    assert hash(Args(x=0.1, z=0.2)) == hash(Args(z=0.2, x=0.1))


def test_empty_subgoal_and_branch_print_back():
    text = 'program t\nsubgoal "a"\nsubgoal "b"\n  parallel {\n  } {\n    back_to_origin(right)\n  }\n'
    program = parse(text)
    assert program.subgoals[0].statements == () and program.subgoals[1].statements[0].left == ()
    assert [s.id for s in program.walk()] == [1, 2]
    assert to_text(program) == text


def test_token_count_examples():
    assert count_tokens("back_to_origin(left)") == 4
    assert count_tokens("back_to_origin(left)  # with comment") == 4
    text = program_path("place_shoe", "correct").read_text()
    # Hand count: 2 program header + 2+2 subgoal headers + calls of
    # 6, 8, 25, 4, 8, and 4 tokens.
    assert count_tokens(text) == 61


def test_node_count_empty_program():
    program = Program("t", [SubgoalBlock("nothing", [])])
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
        back = parse(to_text(program))
        assert back == program and hash(back) == hash(program)


def test_string_escapes_roundtrip():
    program = parse('program t\nsubgoal "with \\"quotes\\" and \\\\slash"\n  observe("a \\"b\\\\c")\n')
    assert program.subgoals[0].description == 'with "quotes" and \\slash'
    assert parse(to_text(program)) == program


def _one_call(stmt: str) -> str:
    return f'program t\nsubgoal "s"\n  {stmt}\n'


# Each argument fault on its own: (call, message, column). Every one is a
# BadArgError (code bad_arg) on the call's line, 3. A fault of an argument's
# binding (its kind, a count) has column 0; one of how it is written is at
# its value's token.
_ARGUMENT_FAULTS = {
    "unknown_keyword": ("back_to_origin(left, speed=2)", "back_to_origin has no argument 'speed'", 30),
    "keyword_repeated": ("move_by_displacement(left, x=0.1, x=0.2)", "duplicate argument 'x'", 39),
    "keyword_repeats_positional": ("back_to_origin(left, arm=right)", "argument 'arm' given twice", 28),
    "positional_after_keyword": ("grasp_actor(shoe, arm=left, 0.1)", "positional argument after keyword argument", 31),
    "too_many_positionals": ("back_to_origin(left, right)", "back_to_origin takes at most 1 arguments", 0),
    "missing_required": ("grasp_actor(shoe)", "grasp_actor missing required argument 'arm'", 0),
    "num": ("open_gripper(left, pos=wide)", "argument 'pos' expects a number", 0),
    "ident": ('grasp_actor("shoe", left)', "argument 'actor' expects an identifier", 0),
    "arm": ("back_to_origin(middle)", "argument 'arm' expects left or right", 0),
    "string": ("observe(step)", "argument 'step_name' expects a quoted string", 0),
    "bool": ("place_actor(shoe, left, fp(target_block, 0), is_open=1)", "argument 'is_open' expects true or false", 0),
    "int_or_auto": ("grasp_actor(shoe, left, contact_point_id=0.5)",
                    "argument 'contact_point_id' expects an integer or auto", 0),
    "int_or_none": ("place_actor(shoe, left, fp(target_block, 0), functional_point_id=auto)",
                    "argument 'functional_point_id' expects an integer or none", 0),
    "target": ("place_actor(shoe, left, 0.3)", "argument 'target' expects fp(actor, id) or pose(...)", 0),
    "enum": ("move_by_displacement(left, move_axis=up)", "argument 'move_axis' expects one of world, arm", 0),
    "fp_point_id": ("place_actor(shoe, left, fp(target_block, 0.5))", "functional point id must be an integer", 44),
    # Only a string argument takes a quoted string; a quoted word is refused as its kind's fault.
    "quoted_arm": ('back_to_origin("left")', "argument 'arm' expects left or right", 0),
    "quoted_bool": ('place_actor(shoe, left, fp(target_block, 0), is_open="false")',
                    "argument 'is_open' expects true or false", 0),
    "quoted_enum": ('place_actor(shoe, left, fp(target_block, 0), constrain="free")',
                    "argument 'constrain' expects one of auto, free, align", 0),
    "quoted_int_or_auto": ('grasp_actor(shoe, left, contact_point_id="auto")',
                           "argument 'contact_point_id' expects an integer or auto", 0),
    "quoted_int_or_none": ('place_actor(shoe, left, fp(target_block, 0), functional_point_id="none")',
                           "argument 'functional_point_id' expects an integer or none", 0),
}

# Two faults in one call: the first in source order is the one reported.
_FIRST_FAULTS = {
    "unknown_keyword_then_positional": ('place_actor(shoe, left, fp(target_block, 0), functal_point_id=1, "s")',
                                        "place_actor has no argument 'functal_point_id'", 65),
    "wrong_kind_then_keyword_repeated": ("move_by_displacement(left, y=up, x=0.1, x=0.2)",
                                         "argument 'y' expects a number", 0),
    "unknown_keyword_then_syntax": ("back_to_origin(left, speed=1 2)", "back_to_origin has no argument 'speed'", 30),
    "too_many_then_syntax": ("back_to_origin(left, right, ,)", "back_to_origin takes at most 1 arguments", 0),
    "given_twice_then_repeated": ("back_to_origin(left, arm=left, arm=right)", "argument 'arm' given twice", 28),
}


@pytest.mark.parametrize("stmt, message, column", [*_ARGUMENT_FAULTS.values(), *_FIRST_FAULTS.values()],
                         ids=[*_ARGUMENT_FAULTS, *_FIRST_FAULTS])
def test_argument_fault(stmt, message, column):
    with pytest.raises(DslSyntaxError) as err:
        parse(_one_call(stmt))
    assert type(err.value) is BadArgError and err.value.code == "bad_arg"
    assert (str(err.value), err.value.line, err.value.column) == (f"line 3, col {column}: {message}", 3, column)


# A number literal that no float holds (1e400, an integer past the float
# range) became inf, which no program parses, or did not convert at all.
@pytest.mark.parametrize("stmt, column", [
    ("move_by_displacement(left, z=0.07, x=1e-400, y=1e400)", 50),
    ("move_by_displacement(left, x=-1e400)", 32),
    ("place_actor(shoe, left, pose(1e400, 0, 0, 1, 0, 0, 0))", 32),
    ("move_by_displacement(left, x=" + "1" * 5000 + ".0)", 32),
    ("move_by_displacement(left, x=" + "9" * 400 + ")", 32),
    ("grasp_actor(shoe, left, contact_point_id=" + "9" * 400 + ")", 44),
], ids=["exponent", "negative", "pose", "long_float", "long_int_as_num", "long_int"])
def test_number_out_of_range_is_bad_arg_at_its_token(stmt, column):
    with pytest.raises(BadArgError) as err:
        parse(_one_call(stmt))
    assert (str(err.value), err.value.column) == (f"line 3, col {column}: number literal out of range", column)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() has no digit limit here")
@pytest.mark.parametrize("digits", ["1" + "0" * sys.get_int_max_str_digits(), "0" * sys.get_int_max_str_digits() + "1"],
                         ids=["large", "leading_zeros"])
def test_integer_too_long_for_int_is_bad_arg(digits):
    with pytest.raises(BadArgError) as err:
        parse(_one_call(f"grasp_actor(shoe, left, contact_point_id={digits})"))
    assert (str(err.value), err.value.column) == ("line 3, col 44: number literal out of range", 44)


def test_small_numbers_still_parse():
    call = next(parse(_one_call("move_by_displacement(left, x=1e-400, y=-0, z=-0.0)")).walk())
    assert (call.args["x"], call.args["y"], call.args["z"]) == (0.0, 0.0, 0.0)


# Text mutations: numbers out of range or at their edges, long digit runs, and
# the punctuation of an argument list.
_MUTATIONS = ("1e400", "-1e400", "1e-400", "-0", "-0.0", "0.5", "7", "9" * 400, "1" * 5000, "0" * 5000 + "3",
              "=", ",", "(", ")", "{", "}", '"', "#", "\n", " ", "", "fp", "pose", "left", "right",
              "auto", "none", "true", "x", "x=", "arm=", "pos=")


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_MUTATIONS) + text[at + rng.choice((0, 0, 1, 2, 5)):]
    return text


def test_fuzzed_texts_print_back_or_are_refused(tasks_dir):
    """Every mutated bundled program either parses to one that prints back to
    itself, with the printed text a fixpoint, or is refused with a
    DslSyntaxError; no other exception escapes."""
    texts = [path.read_text() for path in sorted(tasks_dir.glob("*/*.prog"))]
    rng = random.Random(28)
    accepted = 0
    for _ in range(2000):
        text = _mutate(rng, rng.choice(texts))
        try:
            program = parse(text)
        except DslSyntaxError:
            continue
        accepted += 1
        printed = to_text(program)
        assert parse(printed) == program, text
        assert to_text(parse(printed)) == printed, text
    assert accepted >= 100  # enough of the mutants parse for the printer to be tested


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
