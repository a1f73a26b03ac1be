"""Interprocedural exception-flow analysis: the may-raise model.

The serving tier's headline guarantee — :meth:`SimilarityServer.topk`
never raises — is a *global* property: one new ``raise`` (or one
un-narrowed ``except``) anywhere reachable from the serve root silently
voids it.  This module computes, for every function in the project, the
set of exceptions that can **escape** it, so the E-rule family (see
:mod:`repro.analysis.rules.exceptions`) can check the property at lint
time instead of relying on the fault-injection suite alone.

The model is a forward may-raise analysis over the PR 3
:class:`~repro.analysis.dataflow.ProjectDataflow`:

- **explicit raises** — ``raise X(...)`` resolves ``X`` through the
  module symbol tables; project exception classes are linked into the
  builtin hierarchy through their base lists, so handler subtraction
  honours subclassing across modules;
- **builtin raisers** — a curated catalogue of operations that raise
  without a ``raise`` statement: subscripts (``IndexError``/``KeyError``),
  ``int()``/``float()`` conversions (``ValueError``), single-argument
  ``next()`` (``StopIteration``), division/modulo
  (``ZeroDivisionError``) and ``assert`` (``AssertionError``);
- **handler subtraction** — an exception raised inside a ``try`` body
  only escapes when no enclosing handler catches it (bare ``except:``
  and ``except BaseException`` catch everything; tuples, re-raise and
  ``raise ... from`` are honoured; ``else``/``finally`` bodies are not
  protected by their own ``try``);
- **interprocedural propagation** — call sites resolved through the
  dataflow index (module functions, methods through the approximate MRO,
  ``self.<attr>`` instance calls, constructor ``__init__``) import the
  callee's current escape set, filtered through the caller's enclosing
  handlers, and the whole system is iterated to a fixpoint (recursion is
  safe: the transfer function is monotone over a finite lattice).

Unresolved calls (numpy, stdlib, callables passed in as values) are
assumed **non-raising**: the model is optimistic about the outside world
and exact about project code, which is the useful direction for a
never-raises proof — every escape it reports is rooted at a real project
raise site or catalogue event, so findings carry an actionable chain.

Each escaping exception remembers its origin (module, line, what raised)
and the call chain it travelled, so E001 findings print the full
propagation path.  Functions opt into verification with a
``# contract: never-raises`` comment on (or directly above) their
``def`` line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .dataflow import ClassInfo, ModuleInfo, ProjectDataflow, _dotted

__all__ = [
    "BUILTIN_EXC_PARENT",
    "Escape",
    "EFunc",
    "ExceptionModel",
    "HandlerFact",
    "build_exception_model",
]

#: Builtin exception hierarchy: class name -> direct parent name.  This
#: is the lattice order used for handler subtraction; anything unknown
#: is conservatively assumed to be a direct subclass of ``Exception``.
BUILTIN_EXC_PARENT: Dict[str, Optional[str]] = {
    "BaseException": None,
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "Warning": "Exception",
}

#: Builtins treated as non-raising for well-formed arguments (their
#: TypeError-on-wrong-type modes are type errors, not control flow the
#: model should track).  Calls to these neither raise nor count as
#: "unresolved external" for dead-handler precision.
_BENIGN_BUILTINS = frozenset(
    {
        "len", "str", "repr", "format", "bool", "id", "type", "hash",
        "isinstance", "issubclass", "callable", "hasattr", "vars",
        "sorted", "reversed", "enumerate", "zip", "range", "iter",
        "min", "max", "sum", "abs", "round", "divmod", "pow",
        "list", "dict", "set", "tuple", "frozenset", "bytes", "bytearray",
        "map", "filter", "any", "all", "super", "object", "print",
    }
)

#: Method names on the obs logger (and stdlib logging) whose call inside
#: an except body counts as *recording* the exception (E003 discharge).
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

#: The never-raises contract marker, on or directly above a ``def`` line.
_CONTRACT_RE = re.compile(r"#\s*contract:\s*never-raises\b")

#: Propagation chains longer than this are truncated for display.
_MAX_CHAIN = 12

#: Fixpoint safety valve; real call graphs converge in ~call-depth rounds.
_MAX_ROUNDS = 40


@dataclass(frozen=True)
class Escape:
    """One exception that can escape a function.

    Identity (hashing/equality) is the exception class plus the origin
    site, so escape sets stay finite under the fixpoint; the chain and
    description ride along for reporting only.
    """

    exc: str  #: exception class name
    origin_module: str  #: report-relative path of the raise site
    origin_line: int
    origin_desc: str = field(compare=False, default="raise")
    #: qualnames from the escaping function down to the origin function
    chain: Tuple[str, ...] = field(compare=False, default=())


@dataclass
class EFunc:
    """One analysed function: module-level, method, or nested ``def``.

    Unlike :class:`~repro.analysis.dataflow.FunctionInfo` this table
    includes nested functions (``_drive_closed_loop.worker`` style), because
    contract annotations and raise sites live inside closures too.
    """

    node: ast.AST  #: FunctionDef or AsyncFunctionDef
    module_rel: str
    qualname: str
    parent: Optional["EFunc"] = None
    cinfo: Optional[ClassInfo] = None
    children: Dict[str, "EFunc"] = field(default_factory=dict)
    never_raises: bool = False  #: carries the ``# contract: never-raises`` marker

    @property
    def key(self) -> str:
        """Model-table identifier, ``<module_rel>::<qualname>``."""
        return f"{self.module_rel}::{self.qualname}"

    @property
    def name(self) -> str:
        """Unqualified function name."""
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class HandlerFact:
    """What one ``except`` clause can see and what its body does.

    Collected on the converged model so ``reaching`` includes exceptions
    propagated out of fully-resolved callees in the ``try`` body.
    """

    fn: EFunc
    handler: ast.ExceptHandler
    #: resolved handler class names; None means bare ``except:``
    names: Optional[List[str]]
    #: exception names raised in the try body that reach this handler level
    reaching: Set[str]
    #: the try body (transitively) calls something the model cannot see
    body_external: bool
    reraises: bool
    logs: bool
    sentinel_return: bool
    computed_return: bool

    @property
    def is_broad(self) -> bool:
        """Catches ``Exception`` or wider (incl. bare / ``BaseException``)."""
        if self.names is None:
            return True
        return any(n in ("Exception", "BaseException") for n in self.names)

    @property
    def is_base_or_bare(self) -> bool:
        """Catches even ``KeyboardInterrupt``/``SystemExit``."""
        if self.names is None:
            return True
        return "BaseException" in self.names


@dataclass
class _RaiseSite:
    """A lexical fact the E004/E005 rules report directly."""

    fn: EFunc
    node: ast.AST
    detail: str


class ExceptionModel:
    """Per-function may-raise escape sets over the project call graph."""

    def __init__(self, flow: ProjectDataflow) -> None:
        self.flow = flow
        self.functions: Dict[str, EFunc] = {}
        self.escapes: Dict[str, Set[Escape]] = {}
        #: function key -> calls something unresolved, transitively
        self.external_calls: Dict[str, bool] = {}
        self.contracts: List[EFunc] = []
        self.handler_facts: List[HandlerFact] = []
        self.finally_raises: List[_RaiseSite] = []
        self.unraised_constructions: List[_RaiseSite] = []
        #: project exception class name -> parent class name
        self._project_exc_parent: Dict[str, str] = {}
        #: per-function (attr_types, local_types) cache across fixpoint rounds
        self._type_cache: Dict[str, Tuple[Dict, Dict]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, flow: ProjectDataflow) -> "ExceptionModel":
        """Index functions, link exception classes, iterate to fixpoint."""
        model = cls(flow)
        for minfo in flow.modules.values():
            model._collect_module(minfo)
        model._link_project_exceptions()
        model._mark_contracts()
        model._fixpoint()
        model._facts_pass()
        return model

    def _collect_module(self, minfo: ModuleInfo) -> None:
        rel = minfo.ctx.rel
        for node in minfo.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, rel, node.name, None, None)
            elif isinstance(node, ast.ClassDef):
                cinfo = minfo.classes.get(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(
                            item, rel, f"{node.name}.{item.name}", None, cinfo
                        )

    def _add_function(
        self,
        node: ast.AST,
        rel: str,
        qualname: str,
        parent: Optional[EFunc],
        cinfo: Optional[ClassInfo],
    ) -> None:
        fn = EFunc(
            node=node, module_rel=rel, qualname=qualname, parent=parent, cinfo=cinfo
        )
        self.functions[fn.key] = fn
        if parent is not None:
            parent.children[fn.name] = fn
        for inner in _direct_inner_defs(node):
            self._add_function(inner, rel, f"{qualname}.{inner.name}", fn, cinfo)

    def _link_project_exceptions(self) -> None:
        """Map project exception classes into the builtin hierarchy.

        A class is an exception class when a base chain reaches a builtin
        exception name; its recorded parent is the first base that
        resolves (project class name or builtin name).
        """
        visiting: Set[str] = set()

        def link(minfo: ModuleInfo, cinfo: ClassInfo) -> Optional[str]:
            if cinfo.name in self._project_exc_parent:
                return self._project_exc_parent[cinfo.name]
            if cinfo.key in visiting:  # inheritance cycle: give up
                return None
            visiting.add(cinfo.key)
            for base in cinfo.node.bases:
                dotted = _dotted(base)
                if dotted is None:
                    continue
                last = dotted.split(".")[-1]
                ref = self.flow.resolve(minfo, dotted)
                if ref is not None and ref.kind == "class":
                    base_cinfo = self.flow.class_info(ref)
                    base_minfo = self.flow.modules.get(ref.module_rel)
                    if base_cinfo is not None and base_minfo is not None:
                        if link(base_minfo, base_cinfo) is not None or (
                            base_cinfo.name in self._project_exc_parent
                        ):
                            self._project_exc_parent[cinfo.name] = base_cinfo.name
                            return base_cinfo.name
                    continue
                if last in BUILTIN_EXC_PARENT:
                    self._project_exc_parent[cinfo.name] = last
                    return last
            return None

        for minfo in self.flow.modules.values():
            for cinfo in minfo.classes.values():
                link(minfo, cinfo)

    def _mark_contracts(self) -> None:
        sources: Dict[str, List[str]] = {}
        for fn in self.functions.values():
            lines = sources.get(fn.module_rel)
            if lines is None:
                lines = self.flow.modules[fn.module_rel].ctx.source.splitlines()
                sources[fn.module_rel] = lines
            def_line = fn.node.lineno  # 1-based
            candidates = [def_line, def_line - 1]
            for lineno in candidates:
                if 1 <= lineno <= len(lines) and _CONTRACT_RE.search(
                    lines[lineno - 1]
                ):
                    fn.never_raises = True
                    self.contracts.append(fn)
                    break

    # ------------------------------------------------------------------
    # Exception hierarchy
    # ------------------------------------------------------------------
    def is_exception_subclass(self, name: str, base: str) -> bool:
        """Whether exception class ``name`` is ``base`` or derives from it.

        Walks project parents first, then the builtin table; unknown
        classes are assumed direct subclasses of ``Exception`` (so a
        broad ``except Exception`` is always credited with catching
        them, and narrow handlers never are).
        """
        cur: Optional[str] = name
        seen: Set[str] = set()
        while cur is not None and cur not in seen:
            if cur == base:
                return True
            seen.add(cur)
            if cur in self._project_exc_parent:
                cur = self._project_exc_parent[cur]
            elif cur in BUILTIN_EXC_PARENT:
                cur = BUILTIN_EXC_PARENT[cur]
            else:
                cur = "Exception"
        return False

    def known_exception_class(self, name: str) -> bool:
        """True for builtin exception names and linked project classes."""
        return name in BUILTIN_EXC_PARENT or name in self._project_exc_parent

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        self.escapes = {key: set() for key in self.functions}
        self.external_calls = {key: False for key in self.functions}
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fn in self.functions.values():
                walker = _FnWalker(self, fn, collect_facts=False)
                walker.run()
                if walker.escaped != self.escapes[fn.key]:
                    self.escapes[fn.key] = walker.escaped
                    changed = True
                if walker.has_external and not self.external_calls[fn.key]:
                    self.external_calls[fn.key] = True
                    changed = True
            if not changed:
                break

    def _facts_pass(self) -> None:
        """One walk over the converged model collecting rule-level facts."""
        for fn in self.functions.values():
            _FnWalker(self, fn, collect_facts=True).run()


def build_exception_model(flow: ProjectDataflow) -> ExceptionModel:
    """Build (or return the cached) exception model for a dataflow index."""
    model = getattr(flow, "_exception_model", None)
    if model is None:
        model = ExceptionModel.build(flow)
        flow._exception_model = model
    return model


# ----------------------------------------------------------------------
# Function collection helpers
# ----------------------------------------------------------------------
def _direct_inner_defs(node: ast.AST) -> Iterator[ast.AST]:
    """Nested ``def`` statements directly inside a function body.

    Does not descend into further nested functions (collected
    recursively by the caller), nested classes, or lambdas.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif isinstance(child, (ast.ClassDef, ast.Lambda)):
            continue
        else:
            yield from _direct_inner_defs(child)


class _TryFrame:
    """Handler context for one enclosing ``try`` during the walk."""

    __slots__ = ("specs", "reaching", "body_external")

    def __init__(self, specs: List[Optional[List[str]]]) -> None:
        self.specs = specs
        self.reaching: Set[str] = set()
        self.body_external = False


class _FnWalker:
    """Flow-sensitive walk of one function producing its escape set."""

    def __init__(self, model: ExceptionModel, fn: EFunc, collect_facts: bool) -> None:
        self.model = model
        self.fn = fn
        self.minfo = model.flow.modules[fn.module_rel]
        self.collect_facts = collect_facts
        self.escaped: Set[Escape] = set()
        self.has_external = False
        self._finally_depth = 0
        cached = model._type_cache.get(fn.key)
        if cached is None:
            cinfo = fn.cinfo
            self._attr_types = model.flow.attr_types(cinfo) if cinfo is not None else {}
            cached = (self._attr_types, self._infer_local_types())
            model._type_cache[fn.key] = cached
        self._attr_types, self._local_types = cached

    # -- setup ----------------------------------------------------------
    def _infer_local_types(self) -> Dict[str, ClassInfo]:
        """``var = SomeClass(...)`` bindings, including enclosing scopes.

        Nested functions close over their parents' locals, so the chain
        of enclosing functions is scanned outermost-first (inner
        assignments shadow outer ones).
        """
        chain: List[EFunc] = []
        cur: Optional[EFunc] = self.fn
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        types: Dict[str, ClassInfo] = {}
        for scope in reversed(chain):
            for node in ast.walk(scope.node):
                # `for item in self.items` (loop or comprehension): the item
                # takes the declared type of the iterated attribute.
                if isinstance(node, (ast.For, ast.comprehension)):
                    it = node.iter
                    if (
                        isinstance(node.target, ast.Name)
                        and isinstance(it, ast.Attribute)
                        and isinstance(it.value, ast.Name)
                        and it.value.id == "self"
                        and it.attr in self._attr_types
                    ):
                        types[node.target.id] = self._attr_types[it.attr]
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    classes = self.model.flow._call_result_classes(
                        self.minfo, node.value
                    )
                    if classes:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                types[target.id] = classes[0]
        return types

    def run(self) -> None:
        """Walk the function body; results land on the walker attributes."""
        body = getattr(self.fn.node, "body", [])
        self._walk_stmts(body, [], (), None)

    # -- statements -----------------------------------------------------
    def _walk_stmts(
        self,
        stmts: Sequence[ast.stmt],
        frames: List[_TryFrame],
        caught: Tuple[str, ...],
        binding: Optional[str],
    ) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, frames, caught, binding)

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        frames: List[_TryFrame],
        caught: Tuple[str, ...],
        binding: Optional[str],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analysed as their own EFunc entries
        if isinstance(stmt, ast.Raise):
            self._handle_raise(stmt, frames, caught, binding)
            return
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            self._handle_try(stmt, frames, caught, binding)
            return
        if isinstance(stmt, ast.Assert):
            self._event(("AssertionError",), stmt, "assert", frames)
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Div, ast.FloorDiv, ast.Mod)
        ):
            self._event(("ZeroDivisionError",), stmt, "division", frames)
        if isinstance(stmt, ast.Expr) and self.collect_facts:
            self._check_unraised(stmt)
        # Generic traversal: visit expression children for raise events,
        # recurse into nested statement blocks with the same context.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child, frames)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, frames, caught, binding)
            elif isinstance(child, ast.withitem):
                self._visit_expr(child.context_expr, frames)
            else:
                # match_case and friends: nested statement lists + exprs.
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self._visit_expr(sub, frames)
                    elif isinstance(sub, ast.stmt):
                        self._walk_stmt(sub, frames, caught, binding)

    def _handle_try(
        self,
        stmt: ast.Try,
        frames: List[_TryFrame],
        caught: Tuple[str, ...],
        binding: Optional[str],
    ) -> None:
        frame = _TryFrame([self._handler_spec(h) for h in stmt.handlers])
        self._walk_stmts(stmt.body, frames + [frame], caught, binding)
        for handler, spec in zip(stmt.handlers, frame.specs):
            if self.collect_facts:
                self._record_handler_fact(handler, spec, frame)
            handler_caught = tuple(
                sorted(
                    n for n in frame.reaching if self._spec_catches(spec, n)
                )
            )
            if not handler_caught:
                # Nothing concrete reached it: a bare re-raise still
                # re-propagates whatever the handler declares.
                handler_caught = tuple(spec) if spec else ("Exception",)
            # Handler bodies are NOT protected by their own try.
            self._walk_stmts(handler.body, frames, handler_caught, handler.name)
        self._walk_stmts(stmt.orelse, frames, caught, binding)
        self._finally_depth += 1
        try:
            self._walk_stmts(stmt.finalbody, frames, caught, binding)
        finally:
            self._finally_depth -= 1

    def _handle_raise(
        self,
        stmt: ast.Raise,
        frames: List[_TryFrame],
        caught: Tuple[str, ...],
        binding: Optional[str],
    ) -> None:
        if self.collect_facts and self._finally_depth > 0:
            self.model.finally_raises.append(
                _RaiseSite(self.fn, stmt, "raise inside finally")
            )
        if stmt.exc is None:
            # Bare re-raise: propagates the caught set.
            names: Tuple[str, ...] = caught or ("RuntimeError",)
            desc = "re-raise"
        elif (
            isinstance(stmt.exc, ast.Name)
            and binding is not None
            and stmt.exc.id == binding
        ):
            names = caught or ("Exception",)
            desc = "re-raise"
        else:
            resolved = self._exc_name(stmt.exc)
            names = (resolved,) if resolved is not None else ("Exception",)
            desc = f"raise {resolved or '<unresolved>'}"
        self._event(names, stmt, desc, frames)
        # Constructor arguments can themselves raise (f-strings, calls).
        if stmt.exc is not None:
            self._visit_expr(stmt.exc, frames)
        if stmt.cause is not None:
            self._visit_expr(stmt.cause, frames)

    # -- expressions ----------------------------------------------------
    def _visit_expr(self, node: Optional[ast.AST], frames: List[_TryFrame]) -> None:
        if node is None or isinstance(node, ast.Lambda):
            return  # lambda bodies run later, under unknowable handlers
        if isinstance(node, ast.Call):
            self._handle_call(node, frames)
        elif isinstance(node, ast.Subscript):
            if not isinstance(node.slice, ast.Slice):
                self._event(("IndexError", "KeyError"), node, "subscript", frames)
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Div, ast.FloorDiv, ast.Mod)
        ):
            self._event(("ZeroDivisionError",), node, "division", frames)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                self._visit_expr(child, frames)
            elif isinstance(child, ast.FormattedValue):
                self._visit_expr(child.value, frames)

    def _handle_call(self, node: ast.Call, frames: List[_TryFrame]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("int", "float") and node.args:
                self._event(("ValueError",), node, f"{name}() conversion", frames)
                return
            if name == "next" and len(node.args) == 1:
                self._event(("StopIteration",), node, "next()", frames)
                return
            if name in _BENIGN_BUILTINS:
                return
        callees = self._resolve_callees(node)
        if not callees:
            # Constructing an exception object is not itself a raising
            # (or opaque) operation — only `raise`-ing it is.
            name = self._exc_name(node)
            if name is None or not self.model.known_exception_class(name):
                self._mark_external(frames)
            return
        for key in callees:
            for esc in self.model.escapes.get(key, ()):
                if self._filter(esc.exc, frames):
                    chain = (self.fn.qualname,) + esc.chain
                    if len(chain) > _MAX_CHAIN:
                        chain = chain[: _MAX_CHAIN - 1] + (chain[-1],)
                    self.escaped.add(
                        Escape(
                            exc=esc.exc,
                            origin_module=esc.origin_module,
                            origin_line=esc.origin_line,
                            origin_desc=esc.origin_desc,
                            chain=chain,
                        )
                    )
            if self.model.external_calls.get(key, False):
                self._mark_external(frames)

    def _resolve_callees(self, node: ast.Call) -> List[str]:
        """Model-table keys this call can land on; empty means external."""
        flow = self.model.flow
        func = node.func
        keys: List[str] = []

        # Nested function visible from the enclosing-scope chain.
        if isinstance(func, ast.Name):
            scope: Optional[EFunc] = self.fn
            while scope is not None:
                child = scope.children.get(func.id)
                if child is not None:
                    return [child.key]
                scope = scope.parent

        # self.<attr>(...): method through the MRO, else a stored instance.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.fn.cinfo is not None
        ):
            fi = flow.find_method(self.fn.cinfo, func.attr)
            if fi is not None:
                return self._known([f"{fi.module_rel}::{fi.qualname}"])
            attr_class = self._attr_types.get(func.attr)
            if attr_class is not None:
                return self._instance_call_keys(attr_class)
            return []

        # super().method(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.fn.cinfo is not None
        ):
            for klass in flow.mro(self.fn.cinfo)[1:]:
                if func.attr in klass.methods:
                    return self._known(
                        [f"{klass.module_rel}::{klass.name}.{func.attr}"]
                    )
            return []

        # self.<attr>.method(...): the attribute's inferred class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            attr_class = self._attr_types.get(func.value.attr)
            if attr_class is not None:
                return self._method_keys(attr_class, func.attr)
            return []

        # <factory()>.method(...): classes the receiver call constructs.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
            classes = flow._call_result_classes(self.minfo, func.value)
            if classes:
                return self._method_keys(classes[0], func.attr)
            return []

        dotted = _dotted(func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            # local_var.method(...): the variable's inferred class.
            if rest and "." not in rest and head in self._local_types:
                return self._method_keys(self._local_types[head], rest)
            # Calling an instance held in a local: Class.__call__.
            if not rest and head in self._local_types:
                return self._instance_call_keys(self._local_types[head])
            ref = flow.resolve(self.minfo, dotted)
            if ref is not None:
                if ref.kind == "function":
                    return self._known([f"{ref.module_rel}::{ref.name}"])
                cinfo = flow.class_info(ref)
                if cinfo is not None:
                    init = flow.find_method(cinfo, "__init__")
                    if init is not None:
                        return self._known(
                            [f"{init.module_rel}::{init.qualname}"]
                        )
                    return []  # default object.__init__ cannot raise
        return keys

    def _method_keys(self, cinfo: ClassInfo, name: str) -> List[str]:
        """The method ``name`` resolves to on ``cinfo``, plus every subclass
        override (the receiver may be any subclass instance)."""
        flow = self.model.flow
        found = [flow.find_method(cinfo, name)] + flow.overrides(cinfo, name)
        return self._known([f"{fi.module_rel}::{fi.qualname}" for fi in found if fi])

    def _instance_call_keys(self, cinfo: ClassInfo) -> List[str]:
        keys = []
        for mname in ("__call__", "forward"):
            fi = self.model.flow.find_method(cinfo, mname)
            if fi is not None:
                keys.append(f"{fi.module_rel}::{fi.qualname}")
        return self._known(keys)

    def _known(self, keys: List[str]) -> List[str]:
        return [k for k in keys if k in self.model.functions]

    # -- events ---------------------------------------------------------
    def _event(
        self,
        names: Tuple[str, ...],
        node: ast.AST,
        desc: str,
        frames: List[_TryFrame],
    ) -> None:
        for name in names:
            if self._filter(name, frames):
                self.escaped.add(
                    Escape(
                        exc=name,
                        origin_module=self.fn.module_rel,
                        origin_line=getattr(node, "lineno", 1),
                        origin_desc=desc,
                        chain=(self.fn.qualname,),
                    )
                )

    def _filter(self, name: str, frames: List[_TryFrame]) -> bool:
        """True when ``name`` escapes every enclosing handler frame."""
        for frame in reversed(frames):
            frame.reaching.add(name)
            for spec in frame.specs:
                if self._spec_catches(spec, name):
                    return False
        return True

    def _spec_catches(self, spec: Optional[List[str]], name: str) -> bool:
        if spec is None:
            return True  # bare except
        return any(self.model.is_exception_subclass(name, h) for h in spec)

    def _mark_external(self, frames: List[_TryFrame]) -> None:
        self.has_external = True
        for frame in frames:
            frame.body_external = True

    # -- resolution helpers ---------------------------------------------
    def _exc_name(self, expr: ast.AST) -> Optional[str]:
        """Exception class name for a raise/handler expression."""
        target = expr.func if isinstance(expr, ast.Call) else expr
        dotted = _dotted(target)
        if dotted is None:
            return None
        ref = self.model.flow.resolve(self.minfo, dotted)
        if ref is not None and ref.kind == "class":
            return ref.name
        last = dotted.split(".")[-1]
        if last in BUILTIN_EXC_PARENT:
            return last
        return None

    def _handler_spec(self, handler: ast.ExceptHandler) -> Optional[List[str]]:
        if handler.type is None:
            return None
        exprs = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names: List[str] = []
        for expr in exprs:
            resolved = self._exc_name(expr)
            if resolved is not None:
                names.append(resolved)
            else:
                dotted = _dotted(expr)
                # Unknown class: keep the literal name so identical
                # raises still match; it defaults under Exception.
                names.append(dotted.split(".")[-1] if dotted else "Exception")
        return names

    # -- facts ----------------------------------------------------------
    def _record_handler_fact(
        self,
        handler: ast.ExceptHandler,
        spec: Optional[List[str]],
        frame: _TryFrame,
    ) -> None:
        reraises = False
        logs = False
        sentinel = False
        computed = False
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                reraises = True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOG_METHODS
            ):
                logs = True
            elif isinstance(node, ast.Return):
                if node.value is None or isinstance(node.value, ast.Constant):
                    sentinel = True
                else:
                    computed = True
        self.model.handler_facts.append(
            HandlerFact(
                fn=self.fn,
                handler=handler,
                names=spec,
                reaching=set(frame.reaching),
                body_external=frame.body_external,
                reraises=reraises,
                logs=logs,
                sentinel_return=sentinel,
                computed_return=computed,
            )
        )

    def _check_unraised(self, stmt: ast.Expr) -> None:
        """E005 fact: a bare-statement construction of an exception class."""
        if not isinstance(stmt.value, ast.Call):
            return
        name = self._exc_name(stmt.value)
        if name is not None and self.model.known_exception_class(name):
            self.model.unraised_constructions.append(
                _RaiseSite(self.fn, stmt, f"{name}(...) constructed but not raised")
            )
