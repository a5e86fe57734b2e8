"""The flat taint IR: opcodes, instructions and per-file modules.

The taint engine used to interpret the PHP AST directly: a 30-way
``isinstance`` dispatch per expression node, with guard extraction,
context strings and receiver descriptions recomputed on every visit (and
re-visited twice per loop).  :func:`repro.ir.lower.lower_program` performs
all of that *syntax-only* work exactly once, producing a linear array of
:class:`IRInstr` three-address instructions; the engine then runs its
abstract domain (taint sets, 2-iteration loop joins, guard recording) as
a tight integer-dispatch loop over the array.

Design rules:

* **Config independence.**  Lowering never consults a
  :class:`~repro.analysis.model.DetectorConfig`: which names are entry
  points, sources, sanitizers or sinks is decided at *run* time by the
  engine's merged tables.  That is what lets one lowered module be cached
  on disk next to its AST (same content hash, same ``ast`` namespace) and
  shared by every knowledge configuration.
* **Registers are static single-use slots.**  Every expression gets a
  fresh register at lowering time; register 0 is the constant EMPTY taint
  set.  Loop bodies re-execute their span and simply overwrite their
  registers.
* **Control flow is structured.**  ``IF``/``LOOP``/``SWITCH``/``TRY``
  instructions carry a meta object whose sub-spans the engine executes
  with exactly the env copies and joins the AST walker used; a ``JUMP``
  placed before each span region keeps the linear stream executable
  without the interpreter knowing about span layout.

The byte-identity of the engine's findings against the original AST
walker (kept as a reference implementation in
:mod:`repro.analysis.astwalk`) is pinned by the differential oracle test
suite over the grammar corpus and the demo application.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: bump together with :data:`repro.cache.CACHE_FORMAT`: lowered modules
#: are what the cache store's ``ast`` namespace keeps of a parse.
IR_FORMAT = 1

# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------
# reads (dst = taint set)
SOURCE = 1         # variable read: entry-point taint or env lookup
SOURCE_INDEX = 2   # array read $base[idx]: superglobal taint or env lookup
LOAD_KEY = 3       # property / static-property read via a storage key

# writes (dst = stored taint set)
ASSIGN = 4         # $x = v / compound $x .= v (extra carries compound)
ASSIGN_KEY = 5     # $obj->prop = v via a storage key
ASSIGN_STATIC = 6  # Cls::$prop = v (always overwrites)
APPEND = 7         # $arr[...] = v (unions into the whole array)
LIST_ASSIGN = 8    # list($a, $b) = v

# pure dataflow
STEP = 9           # dst = {t.step(kind, detail, line)} over src
CONCAT = 10        # dst = stepped-CONCAT union of operand registers
UNION = 11         # dst = plain union of operand registers
CALL_FOLD = 12     # dst = stepped-CALL union (dynamic call / new Cls)
CAST = 13          # dst = src, or EMPTY for configured untaint casts

# calls (dispatch against the runtime knowledge tables)
CALL = 14          # free function call
CALL_METHOD = 15   # $obj->m(...) (a = receiver register)
CALL_STATIC = 16   # Cls::m(...)

# effects
SINK = 17          # echo/print/exit/include/shell sink check on src
GUARD = 18         # apply recorded condition guards to the current env
RET = 19           # record return taints on the current frame
UNSET = 20         # drop variables from the env

# scoped sub-programs
CLOSURE = 21       # run a closure body in a fresh captured env
ARROW = 22         # run an arrow-function expression in an env copy

# structured control (extra = meta object, spans executed by the engine)
IF = 23
LOOP = 24
SWITCH = 25
TRY = 26
JUMP = 27          # linear skip over a span region: pc := a

#: opcode -> mnemonic, for disassembly and debugging.
OPNAMES = {
    SOURCE: "SOURCE", SOURCE_INDEX: "SOURCE_INDEX", LOAD_KEY: "LOAD_KEY",
    ASSIGN: "ASSIGN", ASSIGN_KEY: "ASSIGN_KEY",
    ASSIGN_STATIC: "ASSIGN_STATIC", APPEND: "APPEND",
    LIST_ASSIGN: "LIST_ASSIGN", STEP: "STEP", CONCAT: "CONCAT",
    UNION: "UNION", CALL_FOLD: "CALL_FOLD", CAST: "CAST", CALL: "CALL",
    CALL_METHOD: "CALL_METHOD", CALL_STATIC: "CALL_STATIC", SINK: "SINK",
    GUARD: "GUARD", RET: "RET", UNSET: "UNSET", CLOSURE: "CLOSURE",
    ARROW: "ARROW", IF: "IF", LOOP: "LOOP", SWITCH: "SWITCH", TRY: "TRY",
    JUMP: "JUMP",
}

#: a half-open ``[start, end)`` index range into a module's code array.
Span = tuple[int, int]


@dataclass(slots=True)
class IRInstr:
    """One three-address instruction.

    Field use varies per opcode (documented next to each opcode above):
    ``dst``/``a`` are register numbers (``a`` doubles as the jump target
    for ``JUMP``), ``name`` is the interned variable/function/sink name,
    ``line`` the source line, and ``extra`` the per-opcode payload
    (operand register tuples, precomputed context strings, control-flow
    meta objects).
    """

    op: int
    dst: int = 0
    a: int = 0
    name: str = ""
    line: int = 0
    extra: object = None


@dataclass(slots=True)
class IfMeta:
    """``IF``: branch spans plus everything the merge logic needs."""

    line: int
    cond_guards: tuple          # ((key, guard_func), ...) of the if-cond
    then_span: Span
    #: ((cond_span, body_span), ...) — conds run in the parent env.
    elifs: tuple
    else_span: Span | None
    then_terminates: bool
    exit_kind: str | None       # "exit" / "return" / "error" / None


@dataclass(slots=True)
class LoopMeta:
    """``LOOP``: while/do-while/for/foreach bodies (2-iteration join)."""

    kind: str                   # "while" | "dowhile" | "for" | "foreach"
    line: int
    body_span: Span
    cond_span: Span | None = None    # while/do-while condition
    step_span: Span | None = None    # for-loop step expressions
    subject: int = 0                 # foreach: register of the iterable
    value_names: tuple = ()          # foreach: value-target variable names
    key_name: str | None = None      # foreach: key-target variable name


@dataclass(slots=True)
class SwitchMeta:
    """``SWITCH``: (test_span | None, body_span) per case, in order."""

    cases: tuple


@dataclass(slots=True)
class TryMeta:
    """``TRY``: catch body spans (the try body itself runs inline)."""

    catch_spans: tuple


@dataclass(slots=True)
class IRFunction:
    """One lowered function/method body."""

    name: str                   # lowercase; "cls::method" for methods
    param_names: tuple          # declared parameter names, in order
    span: Span                  # body instructions
    line: int                   # declaration line


@dataclass(slots=True)
class IRModule:
    """The lowered form of one parsed file.

    ``functions`` preserves the declaration-collection order and aliasing
    of the AST walker: methods appear both as ``cls::name`` and under
    their bare name (first declaration wins), and aliases share one
    :class:`IRFunction`.
    """

    code: list = field(default_factory=list)
    top_span: Span = (0, 0)
    functions: dict = field(default_factory=dict)
    n_regs: int = 1
    version: int = IR_FORMAT


def disassemble(module: IRModule) -> str:
    """Human-readable listing (debugging and the IR docs examples)."""
    lines = [f"module: {len(module.code)} instrs, "
             f"{module.n_regs} regs, top={module.top_span}"]
    for name, fn in module.functions.items():
        lines.append(f"  func {name}{fn.param_names} @ {fn.span}")
    for i, instr in enumerate(module.code):
        extra = "" if instr.extra is None else f" extra={instr.extra!r}"
        lines.append(
            f"  {i:4d}: {OPNAMES.get(instr.op, instr.op):<13}"
            f" dst=r{instr.dst} a={instr.a} name={instr.name!r}"
            f" line={instr.line}{extra}")
    return "\n".join(lines)
