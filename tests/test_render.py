import hashlib
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from armloop.dsl import parse
from armloop.instrument import insert_observations
from armloop.render import SCALE, render_trials, snapshot_svg, world_to_svg
from armloop.scene import load_task_spec
from armloop.sim import dump_trials, run_trials

from conftest import TASK_NAMES, one_trial, program_path, task_path

SVG_NS = "{http://www.w3.org/2000/svg}"


def _run(place_shoe_spec, seed=7):
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    return one_trial(program, place_shoe_spec, seed)


def test_one_svg_per_snapshot(tmp_path, place_shoe_spec):
    log = _run(place_shoe_spec)
    assert len(log.snapshots) == 7
    dump_trials([log], tmp_path / "trials.jsonl")
    written = render_trials(tmp_path / "trials.jsonl", place_shoe_spec, tmp_path / "svg")
    assert len(written) == 7
    assert all(p.suffix == ".svg" for p in written)


def test_svg_places_actor_at_serialized_xy(place_shoe_spec):
    log = _run(place_shoe_spec)
    snap = log.snapshots[0]
    svg = snapshot_svg(snap, place_shoe_spec)
    root = ET.fromstring(svg)
    rect = next(el for el in root.iter(f"{SVG_NS}rect") if el.get("id") == "actor-shoe")
    x, y, _ = snap.scene["actors"]["shoe"]["pose"][:3]
    cx, cy = world_to_svg(x, y)
    shoe = place_shoe_spec.actors["shoe"]
    assert float(rect.get("x")) + float(rect.get("width")) / 2 == round(cx, 1)
    assert float(rect.get("y")) + float(rect.get("height")) / 2 == round(cy, 1)
    assert float(rect.get("width")) == round(2 * shoe.extent[0] * SCALE, 1)


def test_svg_has_caption_functional_points_and_arms(place_shoe_spec):
    log = _run(place_shoe_spec)
    svg = snapshot_svg(log.snapshots[-1], place_shoe_spec)
    root = ET.fromstring(svg)
    caption = next(el for el in root.iter(f"{SVG_NS}text") if el.get("id") == "caption")
    assert "final_scene_state" in caption.text
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert "fp-target_block-0" in ids
    assert "arm-left" in ids and "arm-right" in ids


def test_svg_escapes_step_and_actor_names(tmp_path):
    """Names from the trials file (the step) and the task file (an actor)
    are written into the markup as text, not as markup."""
    raw = json.loads(task_path("place_shoe").read_text())
    actor = 'box<&"\'>'
    raw["actors"].append({**raw["actors"][1], "name": actor, "pose": [0.2, 0.2, 0.02, 1.0, 0.0, 0.0, 0.0]})
    path = tmp_path / "odd.task.json"
    path.write_text(json.dumps(raw))
    spec = load_task_spec(path)
    snap = _run(spec).snapshots[0]
    snap.step_name = '<script>alert("&")</script>'
    svg = snapshot_svg(snap, spec)
    assert "<script>" not in svg
    root = ET.fromstring(svg)
    caption = next(el for el in root.iter(f"{SVG_NS}text") if el.get("id") == "caption")
    assert caption.text == f"{snap.step_name} (t={snap.t})"
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert f"actor-{actor}" in ids and f"fp-{actor}-0" in ids
    assert actor in [el.text for el in root.iter(f"{SVG_NS}text")]


def test_render_is_deterministic(place_shoe_spec):
    log = _run(place_shoe_spec)
    a = snapshot_svg(log.snapshots[2], place_shoe_spec)
    b = snapshot_svg(log.snapshots[2], place_shoe_spec)
    assert a == b


# --- golden render digests ------------------------------------------------------

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "render_digests.json"


def render_digests(work_dir) -> dict[str, str]:
    """sha256 of every SVG render_trials writes for three noisy trials of
    each bundled program, keyed task/kind/file name."""
    digests = {}
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            run_dir = Path(work_dir) / task / kind
            run_dir.mkdir(parents=True)
            logs = run_trials(program, spec, 3, base_seed=0, noise_scale=1.0, max_steps=200)
            dump_trials(logs, run_dir / "trials.jsonl")
            for path in render_trials(run_dir / "trials.jsonl", spec, run_dir / "svg"):
                digests[f"{task}/{kind}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_render_digests_match_golden(tmp_path):
    expected = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    assert render_digests(tmp_path) == expected


if __name__ == "__main__":
    # Re-record the golden digests: PYTHONPATH=src:tests python tests/test_render.py
    with tempfile.TemporaryDirectory() as work_dir:
        GOLDEN_DIGESTS.write_text(json.dumps(render_digests(work_dir), indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
