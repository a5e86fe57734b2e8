"""Flat opcode IR for the taint engine.

:mod:`repro.ir.opcodes` defines the instruction set and module
containers; :mod:`repro.ir.lower` compiles a parsed PHP file into them
in one pass.  The taint engine (:mod:`repro.analysis.engine`) interprets
lowered modules; the original AST walker survives as the differential
oracle in :mod:`repro.analysis.astwalk`.
"""

from repro.ir.lower import lower_program  # noqa: F401
from repro.ir.opcodes import (  # noqa: F401
    IR_FORMAT,
    IRFunction,
    IRInstr,
    IRModule,
    disassemble,
)
