"""JSON form of the frozen configuration dataclasses, derived from their fields."""

from __future__ import annotations

import dataclasses
import json
import math


def config_to_json(cfg) -> dict:
    """Every field of ``cfg``; nested configs become objects, tuples lists."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def config_from_json(cls, doc: dict):
    """Inverse of :func:`config_to_json`; absent fields keep their defaults.

    JSON arrays become tuples, the only sequence type the configs hold.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        default = f.default if f.default_factory is dataclasses.MISSING \
            else f.default_factory()
        if dataclasses.is_dataclass(default):
            value = config_from_json(type(default), value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def require_finite(cfg, *names: str) -> None:
    """Refuse a NaN or infinite value in any of the fields ``names`` of
    ``cfg``, naming the field: a config check such as ``value < 0`` lets
    NaN through, and an infinite weight or width scores or samples NaN."""
    for name in names:
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite, not {getattr(cfg, name)!r}")


def require_integer(name: str, value, least: int | None = None) -> None:
    """Refuse ``value`` unless it is an ``int``, not a bool, of at least
    ``least``, naming it ``name``: NaN passes a check such as
    ``value <= 0``, and a NaN, fractional or boolean count read as a cap
    (``outer >= max_outer``) or a size stops at the wrong place or raises
    where it is used."""
    if isinstance(value, bool) or not isinstance(value, int) or (
            least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, not {value!r}")
