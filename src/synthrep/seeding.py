"""Deterministic seed derivation.

Every random draw in the package is keyed by explicit integers through
``numpy.random.SeedSequence`` so that results are independent of call order,
thread count, and platform. Domain salts keep unrelated streams decoupled
even when the underlying identifiers collide.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

# Domain salts (arbitrary fixed constants, never change them).
SALT_CLASS_CENTER = 0x1A2B_0001
SALT_CAPTION_OFFSET = 0x1A2B_0002
SALT_LATENT = 0x1A2B_0003
SALT_BATCH = 0x1A2B_0004
SALT_AUGMENT = 0x1A2B_0006
SALT_EPOCH = 0x1A2B_0007
SALT_INIT = 0x1A2B_0008
SALT_EVAL = 0x1A2B_0009
SALT_GUIDANCE = 0x1A2B_000A


def rng_from(*entropy: int) -> np.random.Generator:
    """PCG64 generator keyed by an explicit entropy tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def derive_u64(*entropy: int) -> int:
    """A single 64-bit value derived from the entropy tuple."""
    state = np.random.SeedSequence(list(entropy)).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


# the annotation string of a numeric or boolean dataclass field -> (what it
# holds, accepted types)
_NUMBER = (int, float, np.integer, np.floating)
_NUMBER_FIELDS = {
    "bool": ("a boolean", (bool,)),
    "int": ("an integer", (int, np.integer)),
    "float": ("a number", _NUMBER),
    "float | None": ("a number or None", _NUMBER + (type(None),)),
    "tuple[int, ...]": ("integers", (int, np.integer)),
    "tuple[float, ...]": ("numbers", _NUMBER),
}


def _check_numbers(config) -> None:
    """Raise ValueError naming the first numeric or boolean field of the
    dataclass `config` whose value its annotation refuses; a boolean is no
    number, and only a boolean passes a boolean field. An integer in a float
    field is stored as float(v), so that 4 and 4.0 make one config."""
    for f in dataclasses.fields(config):
        if f.type not in _NUMBER_FIELDS:
            continue
        what, types = _NUMBER_FIELDS[f.type]
        value = getattr(config, f.name)
        is_tuple = f.type.startswith("tuple")
        entries = value if is_tuple else (value,)
        if any(
            isinstance(v, bool) != (bool in types) or not isinstance(v, types) for v in entries
        ):
            raise ValueError(f"{f.name} must be {what}, not {value!r}")
        if "float" in f.type:
            try:
                floats = [v if v is None else float(v) for v in entries]
            except OverflowError:
                raise ValueError(f"{f.name} must be {what} within float range") from None
            # object.__setattr__, since the configs are frozen
            object.__setattr__(config, f.name, tuple(floats) if is_tuple else floats[0])


def caption_fingerprint(text: str) -> tuple[int, int]:
    """Map caption text to (prompt_seed, class_selector), both 64-bit.

    Uses SHA-256 so identical text gives identical values across runs,
    platforms, and Python hash randomization.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    prompt_seed = int.from_bytes(digest[:8], "little")
    class_selector = int.from_bytes(digest[8:16], "little")
    return prompt_seed, class_selector
