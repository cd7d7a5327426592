"""Generated-kernel auditing: lint the code the compiler writes.

``repro.power.compile`` emits straight-line numpy kernels at runtime
and ``exec``\\ s them — source no repository lint pass ever sees.  This
module closes that gap: ``audit_registered_kernels()`` asks the
compiler for every kernel it can emit (all registered rail topologies
crossed with every gate-state signature, via
``iter_registered_kernel_sources``), parses each one, and runs two rule
families over the synthetic module:

``KER001 kernel-structure``
    The structural contract of an emitted kernel: the expected
    ``_kernel`` signature, single-assignment locals (a name may be
    rebound only by an expression reading its own prior value — the
    accumulator pattern; anything else is the cross-rail name collision
    the counter exists to prevent), every envelope mask (``_b*`` /
    ``_bg*``) consumed downstream, ``_bad`` consumed by ``.any()``,
    contiguous ``guards[0..n-1]`` calls matching the guard list, a
    final 2-tuple return, and no float32 narrowing anywhere.

    Scalar kernels (a ``_scalar`` def, the target behind
    ``RailGraph.solve``) get their own structural contract: the
    expected signature, the same single-assignment discipline, no
    numpy, every early exit a bare ``return None`` decline, and a final
    ``return (i_source, (currents...), (names...))`` with one current
    per component name.

``KER002 kernel-hygiene``
    The repository-wide determinism rules applied to kernel source:
    no imports, no wall-clock or unseeded-random calls, no nested
    ``exec``/``eval`` (the synthetic module name is *not* in DET004's
    allow-list, so a kernel that emitted dynamic code would flag).

Both rules carry a synthetic module prefix no real file uses, so they
are inert during a normal tree walk and fire only through the audit
entry points — but they still register in ``default_rules()`` so
``--list-rules`` documents them and baselines can reference them.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .driver import ModuleContext, ProjectIndex, Rule
from .findings import SEVERITY_ERROR, Finding
from .rules_determinism import (
    _BANNED_CLOCK_CALLS,
    DynamicCodeRule,
    UnseededRandomRule,
    _dotted,
)

#: Synthetic dotted module name kernel contexts are tagged with.  Not a
#: real module — chosen so DET004's allow-list (which names the real
#: ``repro.power.compile``) does NOT cover it: dynamic code inside a
#: generated kernel is a finding even though the generator itself may
#: ``exec``.
KERNEL_MODULE = "repro.power.compile._kernel"

#: The exact positional parameters ``generate_kernel_source`` emits.
KERNEL_PARAMS = ("v", "loads", "masks", "factors", "guards", "shape", "_np")

#: The exact parameters ``generate_scalar_kernel_source`` emits.
SCALAR_PARAMS = ("v", "i_mcu", "i_sensor", "i_radio_digital", "i_radio_rf",
                 "factors", "_sqrt", "_hypot", "_inf")


def is_scalar_kernel(source: str) -> bool:
    """True for scalar-target source (it defines ``_scalar``)."""
    return re.search(r"^def _scalar\(", source, re.MULTILINE) is not None


def kernel_context(kind: str, signature: tuple,
                   source: str) -> Tuple[Optional[ModuleContext],
                                         Optional[Finding]]:
    """Wrap one emitted kernel source as a lintable module context.

    The relpath is a stable ``<kernel:kind:gate=state,...>`` label —
    path-shaped but impossible as a real file, so findings (and their
    baseline fingerprints) identify the kernel, not a tmp file.
    """
    label = ",".join(f"{gate}={state}" for gate, state in signature)
    target = "scalar-kernel" if is_scalar_kernel(source) else "kernel"
    relpath = f"<{target}:{kind}:{label or 'no-gates'}>"
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="KER001",
            rule_name="kernel-structure",
            severity=SEVERITY_ERROR,
            message=f"emitted kernel does not parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
    return ModuleContext(
        path=pathlib.Path(relpath),
        relpath=relpath,
        module=KERNEL_MODULE,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    ), None


def _statements_in_order(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement in a block, recursively, in lexical order."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                yield from _statements_in_order(inner)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _statements_in_order(handler.body)


class KernelStructureRule(Rule):
    """Structural invariants of one emitted kernel."""

    rule_id = "KER001"
    rule_name = "kernel-structure"
    severity = SEVERITY_ERROR
    description = ("emitted kernel violates the generator's structural "
                   "contract (signature, single-assignment, mask "
                   "consumption, guard wiring, return shape)")
    module_prefixes = (KERNEL_MODULE,)

    #: Guard names for the kernel under audit; the audit entry point
    #: sets this per kernel (empty when unknown: guard checks relax).
    guard_names: Tuple[str, ...] = ()

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        if is_scalar_kernel(ctx.source):
            yield from self._check_scalar(ctx)
            return
        kernels = [node for node in ctx.tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_kernel"]
        if len(kernels) != 1:
            yield self.finding(
                ctx, ctx.tree,
                f"expected exactly one `_kernel` def, found {len(kernels)}",
            )
            return
        func = kernels[0]
        params = tuple(a.arg for a in func.args.posonlyargs
                       + func.args.args)
        if params != KERNEL_PARAMS:
            yield self.finding(
                ctx, func,
                f"kernel signature is {params!r}, expected "
                f"{KERNEL_PARAMS!r}",
            )
        yield from self._check_bindings(ctx, func, KERNEL_PARAMS)
        yield from self._check_masks(ctx, func)
        yield from self._check_guards(ctx, func)
        yield from self._check_return(ctx, func)
        yield from self._check_narrowing(ctx, func)

    # -- the scalar target -------------------------------------------------

    def _check_scalar(self, ctx: ModuleContext) -> Iterator[Finding]:
        defs = [node for node in ctx.tree.body
                if isinstance(node, ast.FunctionDef)]
        if len(defs) != 1 or defs[0].name != "_scalar":
            yield self.finding(
                ctx, ctx.tree,
                f"expected exactly one `_scalar` def, found "
                f"{[node.name for node in defs]}",
            )
            return
        func = defs[0]
        params = tuple(a.arg for a in func.args.posonlyargs
                       + func.args.args)
        if params != SCALAR_PARAMS:
            yield self.finding(
                ctx, func,
                f"scalar kernel signature is {params!r}, expected "
                f"{SCALAR_PARAMS!r}",
            )
        yield from self._check_bindings(ctx, func, SCALAR_PARAMS)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in ("np", "_np"):
                yield self.finding(
                    ctx, node,
                    "scalar kernel uses numpy — the scalar target is "
                    "Python floats end to end",
                )
        final = func.body[-1] if func.body else None
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node is not final \
                    and not (isinstance(node.value, ast.Constant)
                             and node.value.value is None):
                yield self.finding(
                    ctx, node,
                    "early scalar-kernel exits must be `return None` "
                    "(a decline to the interpreter)",
                )
        value = final.value if isinstance(final, ast.Return) else None
        ok = (
            isinstance(value, ast.Tuple) and len(value.elts) == 3
            and isinstance(value.elts[0], ast.Name)
            and isinstance(value.elts[1], ast.Tuple)
            and all(isinstance(e, ast.Name) for e in value.elts[1].elts)
            and isinstance(value.elts[2], ast.Tuple)
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts[2].elts)
            and len(value.elts[1].elts) == len(value.elts[2].elts)
        )
        if not ok:
            yield self.finding(
                ctx, final if final is not None else func,
                "scalar kernel must end by returning `(i_source, "
                "(currents...), (names...))` with one current per name",
            )

    # -- single-assignment / accumulator discipline -----------------------

    def _check_bindings(self, ctx: ModuleContext, func: ast.FunctionDef,
                        params: Tuple[str, ...]) -> Iterator[Finding]:
        bound: Set[str] = set(params)
        for stmt in _statements_in_order(func.body):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if name in bound:
                    reads = {n.id for n in ast.walk(stmt.value)
                             if isinstance(n, ast.Name)}
                    if name not in reads:
                        yield self.finding(
                            ctx, stmt,
                            f"local `{name}` is rebound without reading "
                            f"its prior value — cross-rail name reuse",
                        )
                bound.add(name)

    # -- every envelope mask must be consumed ------------------------------

    def _check_masks(self, ctx: ModuleContext,
                     func: ast.FunctionDef) -> Iterator[Finding]:
        assigned = {}
        loaded: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node.ctx, ast.Store):
                    assigned.setdefault(node.id, node)
        for name in sorted(assigned):
            is_mask = (name.startswith("_b") and name[2:].isdigit()) \
                or (name.startswith("_bg") and name[3:].isdigit())
            if is_mask and name not in loaded:
                yield self.finding(
                    ctx, assigned[name],
                    f"envelope mask `{name}` is computed but never "
                    f"consumed — an unguarded out-of-envelope point",
                )
        if "_bad" in assigned:
            consumed = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "any"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "_bad"
                for node in ast.walk(func)
            )
            if not consumed:
                yield self.finding(
                    ctx, assigned["_bad"],
                    "`_bad` is accumulated but never checked with "
                    "`.any()` — guard block missing",
                )

    # -- guards[0..n-1] wiring ---------------------------------------------

    def _check_guards(self, ctx: ModuleContext,
                      func: ast.FunctionDef) -> Iterator[Finding]:
        indices: List[int] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "guards" \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, int):
                indices.append(node.slice.value)
        expected = list(range(len(self.guard_names))) if self.guard_names \
            else list(range(len(indices)))
        if sorted(indices) != expected:
            yield self.finding(
                ctx, func,
                f"guard calls use indices {sorted(indices)}, expected "
                f"contiguous {expected} for guards "
                f"{list(self.guard_names)}",
            )

    # -- final return shape ------------------------------------------------

    def _check_return(self, ctx: ModuleContext,
                      func: ast.FunctionDef) -> Iterator[Finding]:
        returns = [node for node in ast.walk(func)
                   if isinstance(node, ast.Return)]
        ok = any(
            node.value is not None
            and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) == 2
            and isinstance(node.value.elts[1], ast.Dict)
            for node in returns
        )
        if not ok:
            yield self.finding(
                ctx, returns[-1] if returns else func,
                "kernel must return a `(i_source, {component: current})` "
                "2-tuple",
            )

    # -- no float32 narrowing ----------------------------------------------

    def _check_narrowing(self, ctx: ModuleContext,
                         func: ast.FunctionDef) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("float32", "astype"):
                yield self.finding(
                    ctx, node,
                    f"kernel uses `{node.attr}` — float64 end to end is "
                    f"part of the bit-exactness contract",
                )
            elif isinstance(node, ast.Constant) \
                    and node.value == "float32":
                yield self.finding(
                    ctx, node,
                    "kernel references dtype 'float32' — float64 end to "
                    "end is part of the bit-exactness contract",
                )


class KernelHygieneRule(Rule):
    """Repository determinism rules applied to emitted kernel source."""

    rule_id = "KER002"
    rule_name = "kernel-hygiene"
    severity = SEVERITY_ERROR
    description = ("emitted kernel contains imports, wall-clock or "
                   "random calls, or dynamic code")
    module_prefixes = (KERNEL_MODULE,)

    def check(self, ctx: ModuleContext,
              index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield self.finding(
                    ctx, node,
                    "emitted kernel contains an import — kernels must "
                    "be closed over their namespace",
                )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in _BANNED_CLOCK_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"emitted kernel calls wall clock `{dotted}()`",
                    )
        # Unseeded randomness and exec/eval: delegate to the real rules
        # (the synthetic module name is outside DET004's allow-list, so
        # dynamic code in a kernel flags even though the generator may
        # exec).
        for rule in (UnseededRandomRule(), DynamicCodeRule()):
            for finding in rule.check(ctx, index):
                yield dataclasses.replace(finding,
                                          rule_id=self.rule_id,
                                          rule_name=self.rule_name)


def audit_kernel_source(kind: str, signature: tuple, source: str,
                        guard_names: Tuple[str, ...] = ()) -> List[Finding]:
    """Run both kernel rule families over one emitted kernel source."""
    ctx, parse_finding = kernel_context(kind, signature, source)
    if parse_finding is not None:
        return [parse_finding]
    assert ctx is not None
    index = ProjectIndex()
    index.add_module(ctx)
    structure = KernelStructureRule()
    structure.guard_names = tuple(guard_names)
    findings: List[Finding] = []
    for rule in (structure, KernelHygieneRule()):
        findings.extend(rule.check(ctx, index))
    return findings


def audit_registered_kernels() -> List[Finding]:
    """Audit every kernel the compiler can emit for registered topologies.

    The entry point behind ``repro lint --kernels``.  A topology the
    compiler cannot emit becomes a KER001 finding rather than an
    exception, so one unsupported plan does not hide the rest.
    """
    from repro.power.compile import iter_registered_kernel_sources

    findings: List[Finding] = []
    try:
        for kind, signature, source, guard_names \
                in iter_registered_kernel_sources():
            if source is None:
                label = ",".join(f"{g}={s}" for g, s in signature)
                findings.append(Finding(
                    path=f"<kernel:{kind}:{label or 'no-gates'}>",
                    line=1,
                    col=0,
                    rule_id="KER001",
                    rule_name="kernel-structure",
                    severity=SEVERITY_ERROR,
                    message=f"kernel generation failed: {guard_names}",
                    snippet="",
                ))
                continue
            findings.extend(
                audit_kernel_source(kind, signature, source, guard_names))
    except Exception as exc:  # registry import/build failure
        findings.append(Finding(
            path="<kernel:registry>",
            line=1,
            col=0,
            rule_id="KER001",
            rule_name="kernel-structure",
            severity=SEVERITY_ERROR,
            message=f"kernel registry enumeration failed: {exc!r}",
            snippet="",
        ))
    return findings
