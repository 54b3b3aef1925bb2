"""Fractal definition files and shipped presets.

A definition file is UTF-8 JSON with fields ``dimension`` (N), ``scale`` (L),
``maps`` (list of ``{"rotation": N*N row-major reals, "translation": N reals}``)
and ``name``.  Three presets ship with the package:

* ``gasket2`` -- planar Sierpinski gasket, 3 maps, L = 2.
* ``gasket3`` -- three-dimensional gasket on a regular tetrahedron, 4 maps, L = 2.
* ``snowflake`` -- Lindstrom snowflake, 7 maps, L = 3; the six outer maps fix
  the vertices of a unit-circumradius hexagon, the seventh fixes the center.

All satisfy the open set condition (take the open convex hull of the fixed
points), which is documented here rather than checked: no finite procedure
verifies it for arbitrary input.
"""

from __future__ import annotations

import json
import numbers
from importlib import resources
from pathlib import Path

import numpy as np

from .ifs import Similitude

PRESET_NAMES = ("gasket2", "gasket3", "snowflake")


def maps_from_definition(definition: dict) -> tuple[list[Similitude], str | None]:
    try:
        dim = definition["dimension"]
        scale = float(definition["scale"])
        raw_maps = definition["maps"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed fractal definition: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"malformed fractal definition: dimension must be an integer "
                         f">= 1, not {dim!r}")
    if not isinstance(raw_maps, list):
        raise ValueError(f"malformed fractal definition: maps must be a list, "
                         f"not {type(raw_maps).__name__}")
    maps = []
    for k, entry in enumerate(raw_maps):
        if not (isinstance(entry, dict) and {"rotation", "translation"} <= entry.keys()):
            raise ValueError(f"map {k + 1}: expected an object with rotation and translation")
        try:
            rot = np.array(entry["rotation"], dtype=float).reshape(dim, dim)
            tr = np.array(entry["translation"], dtype=float)
            maps.append(Similitude(scale=scale, rotation=rot, translation=tr))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"map {k + 1}: {exc}") from exc
    return maps, definition.get("name")


def definition_from_maps(maps: list[Similitude], name: str | None) -> dict:
    return {
        "name": name,
        "dimension": maps[0].dim,
        "scale": maps[0].scale,
        "maps": [
            {"rotation": s.rotation.ravel().tolist(), "translation": s.translation.tolist()}
            for s in maps
        ],
    }


def load_definition(source: str | Path) -> dict:
    """Read a definition from a preset name or a JSON file path."""
    if isinstance(source, str) and source in PRESET_NAMES:
        text = (resources.files("fel") / "presets" / f"{source}.json").read_text("utf-8")
    else:
        text = Path(source).read_text("utf-8")
    return json.loads(text)


def load_maps(source: str | Path) -> tuple[list[Similitude], str | None]:
    return maps_from_definition(load_definition(source))


def write_definition(definition: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(definition, indent=2) + "\n", "utf-8")

