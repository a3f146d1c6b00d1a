"""Prompt assembly for synthesis and repair requests.

Section order is fixed and golden-tested. The initial request leads with
the environment basics; a repair request instead opens with the failure
header, the last error message, and the rendered observation feedback.
"""

from __future__ import annotations

import functools
from importlib import resources

from ..dsl.ast import Program
from ..dsl.printer import to_text
from ..scene import TaskSpec


@functools.cache
def _resource(name: str) -> str:
    """A bundled prompt text, read on first use and kept for the process."""
    return (
        resources.files("armloop.agents.resources").joinpath(name).read_text("utf-8")
    )


def basic_info() -> str:
    return _resource("basic_info.txt")


def code_template(task_name: str) -> str:
    return _resource("code_template.txt").replace("$TASK_NAME$", task_name)


def actor_list(spec: TaskSpec) -> str:
    lines = []
    for actor in spec.actors.values():
        points = ", ".join(
            f"fp({actor.name}, {pt.id})" for pt in actor.functional_points
        ) or "none"
        kind = "static" if actor.static else "movable"
        lines.append(
            f"- {actor.name} ({kind}) at x={actor.pose.p[0]:.2f}, functional points: {points}"
        )
    return "\n".join(lines)


def task_description(spec: TaskSpec, subgoals: list[str]) -> str:
    lines = [spec.instruction, "Subgoals:"]
    lines += [f"{i}. {text}" for i, text in enumerate(subgoals, start=1)]
    return "\n".join(lines)


def build_synthesis_prompt(
    spec: TaskSpec,
    subgoals: list[str],
    current: Program | None = None,
    feedback: tuple[str, str] | None = None,
) -> str:
    """Assemble the full request text.

    ``feedback`` is (last_error, observation_feedback); when present the
    repair variant is produced: failure header first, then task context,
    API, example, and the current code.
    """
    api_doc = _resource("api_doc.txt")
    examples = _resource("function_example.txt")
    current_code = to_text(current) if current is not None else code_template(spec.name)
    description = task_description(spec, subgoals)
    actors = actor_list(spec)

    if feedback is None:
        return (
            f"#Basic Info:\n{basic_info()}\n"
            f"#Task Description:\n{description}\n"
            f"#Actor List:\n{actors}\n"
            f"#Available API:\n{api_doc}\n"
            f"#Function Example:\n{examples}\n"
            f"#Current Code:\n{current_code}"
        )

    last_error, observation_feedback = feedback
    return (
        f"The code is unsuccessful, \n# Last Error Message: \n{last_error}\n\n"
        f"# Visual Observation Feedback: \n{observation_feedback}\n\n"
        f"# Task Description: \n{description}\n\n"
        f"# Actor List: \n{actors}\n\n"
        f"#Available API:\n{api_doc}\n"
        f"#Function Example:\n{examples}\n"
        f"#Current Code:\n{current_code}"
    )
