"""Functional emulation: committed-path machine, memory, wrong-path walks."""

from repro.emulator.dispatch import compile_uop, ensure_compiled
from repro.emulator.machine import Machine, execute_uop
from repro.emulator.memory import MASK64, Memory, OverlayMemory, wrap64
from repro.emulator.shadow import ShadowUop, wrong_path_steps, wrong_path_walk
from repro.emulator.trace import DynamicUop

__all__ = [
    "Machine",
    "compile_uop",
    "ensure_compiled",
    "execute_uop",
    "MASK64",
    "Memory",
    "OverlayMemory",
    "wrap64",
    "ShadowUop",
    "wrong_path_steps",
    "wrong_path_walk",
    "DynamicUop",
]
