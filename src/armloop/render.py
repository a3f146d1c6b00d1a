"""Top-down SVG renders of scene snapshots.

One SVG per snapshot: actor boxes, functional points, gripper positions,
and the step name as a caption. Names from the task file and the trials
file are escaped wherever they enter the markup. SVG keeps renders
diffable in tests and usable as image-as-markup payloads for remote
verifiers.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from .errors import ArmloopError, ArtifactError, ConfigError
from .geometry import apply_rows
from .scene import ARM_TAGS, TaskSpec
from .sim.model import Snapshot, load_trials, scene_from_state

# View window in world meters (x right, y front) and pixel scale.
VIEW_X = (-0.65, 0.65)
VIEW_Y = (-0.25, 0.55)
SCALE = 500.0

WIDTH = int((VIEW_X[1] - VIEW_X[0]) * SCALE)
HEIGHT = int((VIEW_Y[1] - VIEW_Y[0]) * SCALE)

_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
    "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
)

_ARM_COLORS = {"left": "#1f78b4", "right": "#e31a1c"}

# A name as SVG text or an attribute value holds it.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#x27;"})


def world_to_svg(x: float, y: float) -> tuple[float, float]:
    """World (x, y) meters to SVG pixel coordinates (+y front maps up)."""
    px = (x - VIEW_X[0]) * SCALE
    py = HEIGHT - (y - VIEW_Y[0]) * SCALE
    return px, py


def _color(name: str) -> str:
    return _PALETTE[zlib.crc32(name.encode("utf-8")) % len(_PALETTE)]


def snapshot_svg(snapshot: Snapshot, spec: TaskSpec) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#f7f3ec"/>',
    ]
    # Table edge at y = 0 for orientation.
    x0, y0 = world_to_svg(VIEW_X[0], 0.0)
    x1, _ = world_to_svg(VIEW_X[1], 0.0)
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" '
        'stroke="#c9c2b6" stroke-dasharray="6,4"/>'
    )

    scene = scene_from_state(spec, snapshot.scene)
    for name, pose in scene.poses.items():
        geom = spec.actors[name]
        text = name.translate(_ESCAPES)
        cx, cy = world_to_svg(*pose[0, :2].tolist())
        w = 2.0 * geom.extent[0] * SCALE
        h = 2.0 * geom.extent[1] * SCALE
        stroke = _ARM_COLORS.get(scene.held_by(name), "#5a554c")
        parts.append(
            f'<rect id="actor-{text}" x="{cx - w / 2:.1f}" y="{cy - h / 2:.1f}" '
            f'width="{w:.1f}" height="{h:.1f}" fill="{_color(name)}" '
            f'stroke="{stroke}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{cy - h / 2 - 4:.1f}" font-size="12" '
            f'text-anchor="middle" fill="#333">{text}</text>'
        )
        for pt in geom.functional_points:
            fx, fy = world_to_svg(*apply_rows(pose, pt.pose.p)[0, :2].tolist())
            parts.append(
                f'<circle id="fp-{text}-{pt.id}" cx="{fx:.1f}" cy="{fy:.1f}" '
                'r="3" fill="none" stroke="#333" stroke-width="1"/>'
            )

    for tag in ARM_TAGS:
        tx, ty = world_to_svg(*scene.tcps[tag][0, :2].tolist())
        color = _ARM_COLORS[tag]
        parts.append(
            f'<g id="arm-{tag}">'
            f'<line x1="{tx - 8:.1f}" y1="{ty:.1f}" x2="{tx + 8:.1f}" y2="{ty:.1f}" stroke="{color}" stroke-width="2"/>'
            f'<line x1="{tx:.1f}" y1="{ty - 8:.1f}" x2="{tx:.1f}" y2="{ty + 8:.1f}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{tx + 10:.1f}" y="{ty - 6:.1f}" font-size="11" fill="{color}">'
            f'{tag} g={scene.grippers[tag]:.2f}</text>'
            "</g>"
        )

    parts.append(
        f'<text id="caption" x="10" y="20" font-size="16" fill="#222">'
        f"{snapshot.step_name.translate(_ESCAPES)} (t={snapshot.t})</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_trials(trials_path, spec: TaskSpec, out_dir) -> list[Path]:
    """One SVG per snapshot found in a trials.jsonl file, named after its
    trial, its place in the trial and its step. A step name that holds a
    path separator (/ or \\) or a NUL, that cannot be encoded, or that
    makes the file name longer than out_dir allows, or a payload that does
    not fit the task, is an ArtifactError naming the snapshot; an out_dir or
    a file in it that cannot be written is a ConfigError naming --out."""
    out_dir = ConfigError.make_dir(out_dir, "--out")
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")
    written = []
    for log in load_trials(trials_path):
        for seq, snap in enumerate(log.snapshots):
            where = f"{trials_path}: trial {log.trial_index} snapshot {seq}"
            if any(c in snap.step_name for c in "/\\\0"):
                raise ArtifactError(where, f"step name {snap.step_name!r} is not a single path component")
            name = f"trial{log.trial_index:02d}_{seq:02d}_{snap.step_name}.svg"
            try:
                size = len(os.fsencode(name))
            except UnicodeEncodeError as exc:  # a name the file system's encoding cannot hold
                raise ArtifactError(where, f"step name {snap.step_name!r} is not a file name: {exc.reason}") from None
            if size > name_max:
                raise ArtifactError(where, f"step name of {len(snap.step_name)} characters makes a file name "
                                           f"longer than the {name_max} bytes {out_dir} allows")
            try:
                svg = snapshot_svg(snap, spec)
            except ArmloopError as exc:  # a payload that does not fit the task
                raise ArtifactError(where, f"[{exc.code}] {exc}") from None
            path = out_dir / name
            ConfigError.write_text(path, svg, "--out")
            written.append(path)
    return written
