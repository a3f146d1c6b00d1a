import http.server
import json
import threading
from pathlib import Path

import pytest

from armloop.agents import (
    AgentConfig,
    CAUSE_FROM_ERROR,
    CAUSES,
    ChatBackend,
    Diagnosis,
    SubgoalVerdict,
    Synthesizer,
    Verifier,
    build_synthesis_prompt,
    extract_code_block,
    parse_remote_diagnosis,
    parse_subgoal_list,
)
from armloop.dsl import parse
from armloop.errors import (
    AgentFailureError,
    BackendError,
    ConfigError,
    InvalidProgramError,
    MalformedReplyError,
    NoCodeBlockError,
)
from armloop.harness import collect_observations
from armloop.instrument import insert_observations
from armloop.loop import FaultEntry, RepairSignal
from armloop.sim.model import ERROR_CATEGORIES

from conftest import one_trial, program_path

GOLDEN = Path(__file__).parent / "golden"


# --- prompts -------------------------------------------------------------------


def test_initial_prompt_section_order(place_shoe_spec):
    prompt = build_synthesis_prompt(place_shoe_spec, place_shoe_spec.subgoal_templates)
    assert prompt.startswith("#Basic Info:")
    order = ["#Basic Info:", "#Task Description:", "#Actor List:",
             "#Available API:", "#Function Example:", "#Current Code:"]
    positions = [prompt.index(section) for section in order]
    assert positions == sorted(positions)


def test_repair_prompt_feedback_sections_first(place_shoe_spec):
    prompt = build_synthesis_prompt(
        place_shoe_spec,
        place_shoe_spec.subgoal_templates,
        feedback=("boom", "looked wrong"),
    )
    assert prompt.startswith("The code is unsuccessful, \n")
    assert prompt.index("# Last Error Message:") < prompt.index("# Visual Observation Feedback:")
    assert prompt.index("# Visual Observation Feedback:") < prompt.index("# Task Description:")
    assert "#Basic Info:" not in prompt


def test_prompt_golden_files(place_shoe_spec):
    subgoals = place_shoe_spec.subgoal_templates
    initial = build_synthesis_prompt(place_shoe_spec, subgoals)
    assert initial == (GOLDEN / "place_shoe_initial_prompt.txt").read_text(encoding="utf-8")

    current = parse(program_path("place_shoe", "loud").read_text())
    repair = build_synthesis_prompt(
        place_shoe_spec, subgoals, current=current,
        feedback=(
            "grasp of 'shoe' needs right arm at [-0.200, 0.100, 0.140], outside workspace",
            "Subgoal 1 (pick up the shoe): FAILED at stmt 2 [geometric_infeasibility] grasp unreachable"
            "\n\nPrioritized faults:\n- [subgoal 1] stmt 2 cause=geometric_infeasibility edit=parameter_retune source=both",
        ),
    )
    assert repair == (GOLDEN / "place_shoe_repair_prompt.txt").read_text(encoding="utf-8")


def test_code_template_used_for_first_synthesis(place_shoe_spec):
    prompt = build_synthesis_prompt(place_shoe_spec, place_shoe_spec.subgoal_templates)
    assert "program place_shoe" in prompt  # template with the task name filled in


# --- decomposition and synthesis -------------------------------------------------


def test_mock_decompose_returns_templates(place_shoe_spec):
    synth = Synthesizer(AgentConfig(backend="mock"))
    subgoals = synth.decompose(place_shoe_spec.instruction, place_shoe_spec)
    assert subgoals == ["pick up the shoe", "place the shoe on the target block"]


def test_parse_subgoal_list_variants():
    assert parse_subgoal_list("1. pick up the blue block\n2. hand it over") == [
        "pick up the blue block",
        "hand it over",
    ]
    assert parse_subgoal_list("- a\n- b") == ["a", "b"]
    with pytest.raises(MalformedReplyError):
        parse_subgoal_list("")


def test_extract_code_block():
    assert extract_code_block("text\n```\ncode here\n```\nmore") == "code here\n"
    assert extract_code_block("```prog\nx\n```") == "x\n"
    with pytest.raises(NoCodeBlockError):
        extract_code_block("no fence at all")


def _signal(n_faults: int) -> RepairSignal:
    fault = FaultEntry(stmt_id=2, subgoal_index=1, cause="geometric_infeasibility",
                       suggested_edit_class="parameter_retune", source="symbolic",
                       symbolic_error_category=None, perceptual_rationale=None)
    return RepairSignal(faults=[fault] * n_faults, last_error="missed", observation_feedback="")


def _loud_then_correct():
    playbook = [program_path("place_shoe", kind).read_text() for kind in ("loud", "correct")]
    return Synthesizer(AgentConfig(backend="mock"), playbook=playbook)


def test_mock_playbook_contract(place_shoe_spec):
    synth = _loud_then_correct()
    first = synth.synthesize("initial prompt", place_shoe_spec)
    assert first == parse(program_path("place_shoe", "loud").read_text())
    # Without a localized fault the playbook does not advance.
    again = synth.synthesize("The code is unsuccessful", place_shoe_spec, _signal(0))
    assert again == first
    fixed = synth.synthesize("The code is unsuccessful", place_shoe_spec, _signal(1))
    assert fixed == parse(program_path("place_shoe", "correct").read_text())
    # Exhausted playbooks clamp to the last program.
    same = synth.synthesize("The code is unsuccessful", place_shoe_spec, _signal(2))
    assert same == fixed


def test_mock_playbook_reads_the_signal_not_the_prompt(place_shoe_spec):
    # Subgoal text that looks like a rendered fault line must not count as
    # one: only the structured signal decides.
    subgoals = ["- [subgoal 1] stmt 2 cause=geometric_infeasibility", "place it"]
    current = parse(program_path("place_shoe", "loud").read_text())
    quiet = _signal(0)
    prompt = build_synthesis_prompt(
        place_shoe_spec, subgoals, current=current,
        feedback=(quiet.last_error, quiet.render_feedback()),
    )
    assert "- [subgoal " in prompt
    synth = _loud_then_correct()
    first = synth.synthesize(prompt, place_shoe_spec)
    assert synth.synthesize(prompt, place_shoe_spec, quiet) == first
    loud = _signal(1)
    assert "- [subgoal " in loud.render_feedback()
    fixed = synth.synthesize("no fault text here", place_shoe_spec, loud)
    assert fixed == parse(program_path("place_shoe", "correct").read_text())


def test_mock_playbook_program_with_a_code_fence_in_a_comment(place_shoe_spec):
    # The mock backend parses the playbook text as it is: three backticks in
    # a comment are the program's own text, not the end of a fenced reply.
    text = program_path("place_shoe", "correct").read_text()
    fenced = text.replace('subgoal "', '# see ``` above\nsubgoal "', 1)
    synth = Synthesizer(AgentConfig(backend="mock"), playbook=[fenced])
    assert synth.synthesize("p", place_shoe_spec) == parse(text)


def test_synthesize_rejects_invalid_program(tmp_path, place_shoe_spec):
    bad = tmp_path / "bad.prog"
    bad.write_text('program t\nsubgoal "s"\n  grasp_actor(hammer, left)\n')
    synth = Synthesizer(AgentConfig(backend="mock"), playbook=[bad.read_text()])
    with pytest.raises(InvalidProgramError) as err:
        synth.synthesize("p", place_shoe_spec)
    assert len(err.value.diagnostics) == 1


def _transport_script(replies):
    """Sequence of (status, body) pairs; records requests."""
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append({"url": url, "headers": headers, "payload": payload})
        status, body = replies[min(len(calls) - 1, len(replies) - 1)]
        return status, body

    return transport, calls


def _remote_config(**kw):
    return AgentConfig(
        backend="remote", endpoint="https://example.test/v1/chat", model="m",
        api_key_env="ARMLOOP_TEST_KEY", max_retries=2, **kw,
    )


def _chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_remote_synthesize_roundtrip(monkeypatch, place_shoe_spec):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "sekrit")
    reply = _chat_body("```\n" + program_path("place_shoe", "correct").read_text() + "```")
    transport, calls = _transport_script([(200, reply)])
    synth = Synthesizer(_remote_config(), transport=transport)
    program = synth.synthesize("prompt text", place_shoe_spec)
    assert program == parse(program_path("place_shoe", "correct").read_text())
    assert calls[0]["headers"]["Authorization"] == "Bearer sekrit"
    assert calls[0]["payload"]["messages"][-1]["content"] == "prompt text"


def test_remote_decompose(monkeypatch, place_shoe_spec):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, _ = _transport_script([(200, _chat_body("1. pick up the blue block\n2. hand it over"))])
    synth = Synthesizer(_remote_config(), transport=transport)
    assert synth.decompose("do it", place_shoe_spec) == [
        "pick up the blue block", "hand it over",
    ]


def test_remote_empty_reply_is_malformed(monkeypatch, place_shoe_spec):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, _ = _transport_script([(200, _chat_body("   "))])
    synth = Synthesizer(_remote_config(), transport=transport)
    with pytest.raises(MalformedReplyError):
        synth.decompose("do it", place_shoe_spec)


def test_remote_retries_then_succeeds(monkeypatch):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, calls = _transport_script([(503, ""), (429, ""), (200, _chat_body("ok"))])
    naps = []
    backend = ChatBackend(_remote_config(), transport=transport, sleep=naps.append)
    assert backend.complete([{"role": "user", "content": "x"}]) == "ok"
    assert len(calls) == 3
    assert naps == [0.5, 1.0]  # exponential backoff


def test_remote_gives_up_with_backend_error(monkeypatch):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, calls = _transport_script([(503, "")])
    backend = ChatBackend(_remote_config(), transport=transport, sleep=lambda s: None)
    with pytest.raises(BackendError) as err:
        backend.complete([{"role": "user", "content": "x"}])
    assert err.value.status == 503
    assert len(calls) == 3


@pytest.mark.parametrize("max_retries, calls_made", [(0, 1), (1, 2), (2, 3), (None, 3)])
def test_remote_makes_one_call_plus_max_retries(monkeypatch, max_retries, calls_made):
    """A call that keeps failing with 503 is made 1 + max_retries times;
    the default (None here) keeps three calls."""
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, calls = _transport_script([(503, "")])
    config = AgentConfig(backend="remote", endpoint="https://example.test/v1/chat", api_key_env="ARMLOOP_TEST_KEY",
                         **({} if max_retries is None else {"max_retries": max_retries}))
    with pytest.raises(BackendError):
        ChatBackend(config, transport=transport, sleep=lambda s: None).complete([{"role": "user", "content": "x"}])
    assert len(calls) == calls_made


def test_remote_hard_http_error_no_retry(monkeypatch):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, calls = _transport_script([(401, "denied")])
    backend = ChatBackend(_remote_config(), transport=transport, sleep=lambda s: None)
    with pytest.raises(BackendError):
        backend.complete([{"role": "user", "content": "x"}])
    assert len(calls) == 1


def test_missing_api_key_fails_before_any_request(monkeypatch):
    monkeypatch.delenv("ARMLOOP_TEST_KEY", raising=False)
    transport, calls = _transport_script([(200, _chat_body("ok"))])
    backend = ChatBackend(_remote_config(), transport=transport)
    with pytest.raises(AgentFailureError):
        backend.complete([{"role": "user", "content": "x"}])
    assert calls == []


def test_remote_config_requires_endpoint_and_keyvar():
    with pytest.raises(ConfigError) as err:
        AgentConfig(backend="remote", endpoint="", api_key_env="")
    assert str(err.value) == "backend: remote backend requires an endpoint and an api_key_env name"


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, body) reply; a
    reply of None sends nothing, so the client times out."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((dict(self.headers), payload))
        reply = self.server.replies.pop(0)
        if reply is None:
            self.server.release.wait(5)
            return
        status, body = reply
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """A chat endpoint on 127.0.0.1 (a free port) with a list of scripted
    replies and a record of the requests it got."""
    monkeypatch.setenv("no_proxy", "*")  # reach it directly whatever proxy is set
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.daemon_threads = False  # server_close() joins the handler threads
    server.replies, server.requests, server.release = [], [], threading.Event()
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join(5)
    assert not thread.is_alive()


def _loopback_backend(server, timeout_s=5.0):
    host, port = server.server_address
    config = AgentConfig(backend="remote", endpoint=f"http://{host}:{port}/v1/chat", model="m",
                         api_key_env="ARMLOOP_TEST_KEY", timeout_s=timeout_s, max_retries=2)
    return ChatBackend(config, sleep=lambda s: None)  # the default transport


def test_default_transport_posts_json(loopback):
    loopback.replies = [(200, _chat_body("ok"))]
    assert _loopback_backend(loopback).complete([{"role": "user", "content": "x"}]) == "ok"
    (headers, payload), = loopback.requests
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert payload == {"model": "m", "messages": [{"role": "user", "content": "x"}],
                       "temperature": 0.0}


def test_default_transport_retries_429(loopback):
    loopback.replies = [(429, "slow down"), (200, _chat_body("ok"))]
    assert _loopback_backend(loopback).complete([{"role": "user", "content": "x"}]) == "ok"
    assert len(loopback.requests) == 2


def test_default_transport_http_error_keeps_status_and_body(loopback):
    loopback.replies = [(400, "bad request body")]
    with pytest.raises(BackendError) as err:
        _loopback_backend(loopback).complete([{"role": "user", "content": "x"}])
    assert err.value.status == 400
    assert "bad request body" in str(err.value)
    assert len(loopback.requests) == 1


def test_default_transport_timeout_is_backend_error(loopback):
    loopback.replies = [None, None, None]
    with pytest.raises(BackendError) as err:
        _loopback_backend(loopback, timeout_s=0.2).complete([{"role": "user", "content": "x"}])
    assert err.value.status is None
    assert "transport error" in str(err.value)
    assert len(loopback.requests) == 3


# --- diagnosis type ---------------------------------------------------------------


def test_diagnosis_invariants():
    v = SubgoalVerdict(index=1, passed=True, deviation_stmt=4, cause="logic_error")
    assert v.deviation_stmt is None and v.cause is None
    with pytest.raises(ValueError):
        Diagnosis(overall_success=True, subgoals=[SubgoalVerdict(1, False, 2, "logic_error")])
    empty = Diagnosis()
    assert not empty.overall_success and empty.subgoals == []


def test_cause_mapping_total():
    for category in ERROR_CATEGORIES:
        if category == "none":
            continue
        assert CAUSE_FROM_ERROR[category] in CAUSES


# --- oracle verifier ----------------------------------------------------------------


def _diagnose(spec, kind, seed=0):
    program = insert_observations(parse(program_path(spec.name, kind).read_text()), cap=10)
    log = one_trial(program, spec, seed)
    groups = collect_observations(log, program)
    verifier = Verifier(AgentConfig(backend="mock"), spec)
    return log, Verifier.verify(verifier, spec.subgoal_templates, groups, log)


def test_oracle_clean_trial_all_pass(place_shoe_spec):
    log, diagnosis = _diagnose(place_shoe_spec, "correct")
    assert log.goal_met
    assert diagnosis.overall_success
    assert all(v.passed for v in diagnosis.subgoals)


def test_oracle_soundness_on_bundled_runs(place_shoe_spec):
    for kind in ("correct", "loud", "silent"):
        log, diagnosis = _diagnose(place_shoe_spec, kind)
        if diagnosis.overall_success:
            assert log.goal_met


def test_oracle_slip_maps_to_execution_failure(tmp_path):
    raw = json.loads((Path(program_path("place_shoe", "correct")).parents[1] / "place_shoe.task.json").read_text())
    raw["noise"]["slip_base"] = 1.0  # always slips
    path = tmp_path / "slip.task.json"
    path.write_text(json.dumps(raw))
    from armloop.scene import load_task_spec

    spec = load_task_spec(path)
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    log = one_trial(program, spec, 1, noise_scale=1.0)
    assert log.failure_event.error_category == "grasp_slip"
    groups = collect_observations(log, program)
    diagnosis = Verifier(AgentConfig(backend="mock"), spec).verify(spec.subgoal_templates, groups, log)
    v1 = diagnosis.subgoals[0]
    assert not v1.passed
    assert v1.deviation_stmt == log.failure_event.stmt_id
    assert v1.cause == "execution_failure"


def test_oracle_silent_failure_detects_wrong_place(place_shoe_spec):
    log, diagnosis = _diagnose(place_shoe_spec, "silent")
    assert log.failure_event is None
    v1, v2 = diagnosis.subgoals
    assert v1.passed
    assert not v2.passed
    assert v2.cause == "perception_mismatch"
    place_stmt = next(
        ev.stmt_id for ev in log.events if ev.op_name == "place_actor"
    )
    assert v2.deviation_stmt == place_stmt


# --- remote verifier reply parsing -----------------------------------------------


def test_parse_remote_diagnosis_roundtrip():
    reply = json.dumps(
        {
            "overall_success": False,
            "subgoals": [
                {"index": 1, "passed": True, "deviation_stmt": None, "cause": None, "rationale": ""},
                {"index": 2, "passed": False, "deviation_stmt": 6, "cause": "logic_error", "rationale": "missed"},
            ],
        }
    )
    diagnosis = parse_remote_diagnosis("sure, here you go " + reply, 2)
    assert not diagnosis.overall_success
    assert diagnosis.subgoals[1].deviation_stmt == 6


def test_parse_remote_diagnosis_ignores_keys_beyond_the_fields():
    """A model may add keys of its own to a verdict or to the reply; the
    diagnosis holds the fields of the diagnosis.json schema only."""
    reply = json.dumps({
        "overall_success": False,
        "summary": "the shoe was dropped",
        "subgoals": [
            {"index": 1, "passed": True, "deviation_stmt": None, "cause": None, "rationale": "", "confidence": 0.9},
            {"index": 2, "passed": False, "deviation_stmt": 6, "cause": "logic_error", "rationale": "missed",
             "confidence": 0.4, "evidence": ["step 5"]},
        ],
    })
    diagnosis = parse_remote_diagnosis(reply, 2)
    assert diagnosis == Diagnosis(False, [SubgoalVerdict(1, True), SubgoalVerdict(2, False, 6, "logic_error", "missed")])


def test_parse_remote_diagnosis_missing_verdicts():
    with pytest.raises(MalformedReplyError):
        parse_remote_diagnosis('{"overall_success": true, "subgoals": []}', 2)
    with pytest.raises(MalformedReplyError):
        parse_remote_diagnosis("no json here", 2)
    with pytest.raises(MalformedReplyError):
        parse_remote_diagnosis('{"subgoals": []}', 0)


@pytest.mark.parametrize("indices, field", [
    ([1, 1], "reply.subgoals[1].index"),
    ([1, 9], "reply.subgoals[1].index"),
    ([0, 1], "reply.subgoals[0].index"),
], ids=["repeated", "beyond", "zero"])
def test_parse_remote_diagnosis_refuses_indices_not_each_subgoal_once(indices, field):
    """Without this check [1, 1] rendered subgoal 1 as completed and FAILED
    and left subgoal 2 without a verdict; [1, 9] faulted a subgoal 9."""
    reply = json.dumps({"overall_success": False, "subgoals": [
        {"index": indices[0], "passed": True}, {"index": indices[1], "passed": False, "cause": "logic_error"}]})
    with pytest.raises(MalformedReplyError) as err:
        parse_remote_diagnosis(reply, 2)
    assert err.value.field == field


def test_parse_remote_diagnosis_takes_the_verdicts_in_any_order():
    reply = json.dumps({"overall_success": False, "subgoals": [
        {"index": 2, "passed": False, "cause": "logic_error"}, {"index": 1, "passed": True}]})
    assert [v.index for v in parse_remote_diagnosis(reply, 2).subgoals] == [2, 1]


def _verdicts(**edits):
    """A well-formed two-subgoal reply with top-level fields replaced."""
    reply = {
        "overall_success": False,
        "subgoals": [
            {"index": 1, "passed": True, "rationale": ""},
            {"index": 2, "passed": False, "deviation_stmt": None, "cause": "logic_error",
             "rationale": "missed"},
        ],
    }
    return _chat_body(json.dumps({**reply, **edits}))


def _first_verdict(**edits):
    return _verdicts(subgoals=[{"index": 1, "passed": False, **edits},
                               {"index": 2, "passed": False}])


@pytest.mark.parametrize("body, field", [
    (_verdicts(subgoals=5), "reply.subgoals"),
    (_verdicts(overall_success="no"), "reply.overall_success"),
    (_first_verdict(passed="false"), "reply.subgoals[0].passed"),
    (_verdicts(subgoals=[3, {"index": 2, "passed": False}]), "reply.subgoals[0]"),
    (_first_verdict(index="1"), "reply.subgoals[0].index"),
    ("[1]", "body"),
    ('{"choices": 3}', "body.choices"),
    ('{"choices": ["x"]}', "body.choices[0]"),
    ('{"choices": [{"message": {"content": 5}}]}', "body.choices[0].message.content"),
], ids=["subgoals_5", "overall_success_no", "passed_false", "verdict_3", "index_str",
        "body_list", "choices_3", "choice_str", "content_5"])
def test_malformed_reply_names_the_field(monkeypatch, body, field):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    transport, _ = _transport_script([(200, body)])
    backend = ChatBackend(_remote_config(), transport=transport)
    with pytest.raises(MalformedReplyError) as err:
        parse_remote_diagnosis(backend.complete([{"role": "user", "content": "x"}]), 2)
    assert err.value.field == field


def test_remote_verifier_sends_scene_and_svg(monkeypatch, place_shoe_spec):
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    groups = collect_observations(log, program)
    reply = json.dumps(
        {
            "overall_success": True,
            "subgoals": [
                {"index": 1, "passed": True, "rationale": ""},
                {"index": 2, "passed": True, "rationale": ""},
            ],
        }
    )
    transport, calls = _transport_script([(200, _chat_body(reply))])
    verifier = Verifier(_remote_config(), place_shoe_spec, transport=transport)
    diagnosis = verifier.verify(place_shoe_spec.subgoal_templates, groups, log)
    assert diagnosis.overall_success
    payload = calls[0]["payload"]
    log_message, *snapshot_messages = payload["messages"][1:]
    assert log_message["content"].startswith("Symbolic execution log:")
    assert '"op_name": "grasp_actor"' in log_message["content"]
    assert len(snapshot_messages) == len(log.snapshots)
    assert "<svg" in snapshot_messages[0]["content"]
    assert '"actors"' in snapshot_messages[0]["content"]
