"""Deployment artifacts: export/import the program ROM and preload image.

The tangible output of the paper's design flow is a ROM image plus the
register-file initialization.  This module serializes both in formats
an RTL/verification engineer would consume:

* :func:`export_rom_hex` — one hex word per line (`$readmemh` style);
* :func:`export_program_json` — full machine-readable bundle: ROM
  geometry, preload values, output register map, and a digest for
  integrity checking;
* :func:`import_program_json` — reload and re-simulate an exported
  bundle (golden values travel with it, so an imported program is
  still fully checked).
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from ..hashes.sha256 import sha256_hex
from .fsm import FSMController, generate_fsm
from .microcode import MicroProgram


def export_rom_hex(fsm: FSMController) -> str:
    """The ROM image as a `$readmemh`-compatible text block."""
    width_hex = (fsm.word_bits + 3) // 4
    lines = [f"// {len(fsm.rom)} words x {fsm.word_bits} bits"]
    lines += [f"{word:0{width_hex}x}" for word in fsm.rom]
    return "\n".join(lines) + "\n"


def _fp2_to_hex(v: Tuple[int, int]) -> str:
    return f"{v[0]:032x}{v[1]:032x}"


def _fp2_from_hex(s: str) -> Tuple[int, int]:
    if len(s) != 64:
        raise ValueError("expected 64 hex chars for an F_{p^2} value")
    return (int(s[:32], 16), int(s[32:], 16))


def export_program_json(program: MicroProgram, fsm: FSMController = None) -> str:
    """Serialize a microprogram (ROM + preload + outputs + golden)."""
    fsm = fsm or generate_fsm(program)
    rom_hex = [f"{w:x}" for w in fsm.rom]
    payload = {
        "format": "repro-fourq-microprogram-v1",
        "rom": rom_hex,
        "word_bits": fsm.word_bits,
        "reg_addr_bits": fsm.reg_addr_bits,
        "register_count": program.register_count,
        "cycles": program.cycles,
        "preload": {str(r): _fp2_to_hex(v) for r, v in program.preload.items()},
        "outputs": dict(program.outputs),
        "golden": {str(u): _fp2_to_hex(v) for u, v in enumerate(program.golden)},
    }
    payload["digest"] = sha256_hex(
        json.dumps(
            {k: payload[k] for k in ("rom", "preload", "outputs")},
            sort_keys=True,
        ).encode()
    )
    return json.dumps(payload, indent=1)


class ImportError_(ValueError):
    """Raised for malformed or tampered program bundles."""


def import_program_json(data: str) -> Dict:
    """Parse and integrity-check an exported bundle.

    Returns the parsed payload (with ints restored); raises
    :class:`ImportError_` on format or digest mismatch.  Re-simulation
    of an imported bundle requires reassembly from the original trace
    (the bundle is a deployment artifact, not a full IR), so this
    function restores what the hardware needs: ROM, preload, outputs.
    """
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ImportError_(f"not JSON: {exc}") from exc
    if payload.get("format") != "repro-fourq-microprogram-v1":
        raise ImportError_("unknown bundle format")
    expect = sha256_hex(
        json.dumps(
            {k: payload[k] for k in ("rom", "preload", "outputs")},
            sort_keys=True,
        ).encode()
    )
    if payload.get("digest") != expect:
        raise ImportError_("digest mismatch: bundle corrupted")
    payload["rom"] = [int(w, 16) for w in payload["rom"]]
    payload["preload"] = {
        int(r): _fp2_from_hex(v) for r, v in payload["preload"].items()
    }
    payload["golden"] = {
        int(u): _fp2_from_hex(v) for u, v in payload["golden"].items()
    }
    return payload
