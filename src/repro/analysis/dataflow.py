"""Cross-module dataflow layer: symbol resolution, call graph, reachability.

The per-file rules (R001...R007) and the per-class shape checker (S001)
cannot answer *whole-project* questions: "is this autograd op actually on a
training forward path?", "does this helper, three imports away, detach the
gradient?".  This module builds the project-level structures those
questions need:

- a **symbol table** per module (functions, classes, import aliases) with
  relative imports and package re-export chains resolved;
- a **class hierarchy** with an approximate MRO, so methods inherited from
  a base class in another file are visible on the subclass;
- a **call graph** over every function and method, including edges through
  ``self.<attr>`` layer calls (attribute types are inferred from
  ``__init__`` assignments and annotations and simple factory-function
  returns), through
  :class:`~repro.autograd.tensor.Tensor` method calls, and through the
  operator dunders (``a + b`` adds an edge to ``Tensor.__add__``);
- **reachability** from the model forward methods (``forward``,
  ``forward_pair``, ``encode_side``...), which defines "the training
  graph" the D-rules audit;
- the **tape-op catalogue**: every function/method that creates a tape
  node via ``Tensor._make``, together with whether it defines a backward
  closure.

Everything is conservative over-approximation: an edge that might exist is
assumed to exist, so "reachable" never misses a real forward path.  The
rules built on top (see :mod:`repro.analysis.rules.differentiability`)
therefore never silently skip an op that training actually uses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .engine import FileContext, ProjectContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectDataflow",
    "SymbolRef",
    "TENSOR_OP_METHODS",
    "FORWARD_ROOT_METHODS",
    "OPERATOR_METHODS",
]

#: Method names treated as model forward paths (call-graph roots).
FORWARD_ROOT_METHODS = (
    "forward",
    "forward_pair",
    "head",
    "encode_side",
    "step_features",
    "embed_points",
)

#: Tensor methods that build tape nodes; an attribute call with one of
#: these names is assumed to hit the autograd engine (conservative).
TENSOR_OP_METHODS = frozenset(
    {
        "exp",
        "log",
        "sqrt",
        "tanh",
        "sigmoid",
        "relu",
        "leaky_relu",
        "abs",
        "sum",
        "mean",
        "max",
        "reshape",
        "transpose",
        "swapaxes",
        "expand_dims",
        "squeeze",
        "broadcast_to",
    }
)

#: AST operator type -> Tensor dunder implementing it.
OPERATOR_METHODS = {
    ast.Add: "__add__",
    ast.Sub: "__sub__",
    ast.Mult: "__mul__",
    ast.Div: "__truediv__",
    ast.MatMult: "__matmul__",
    ast.Pow: "__pow__",
}

#: Maximum re-export chain length followed through package __init__ files.
_MAX_REEXPORT_DEPTH = 6


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted source text of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass(frozen=True)
class SymbolRef:
    """A resolved project symbol: where it lives and what kind it is."""

    kind: str  #: "function" | "class"
    module_rel: str  #: report-relative path of the defining file
    name: str  #: symbol name inside that module


@dataclass
class FunctionInfo:
    """One function or method with its defining location."""

    node: ast.FunctionDef
    module_rel: str
    qualname: str  #: "func" or "Class.func"

    @property
    def node_id(self) -> str:
        """Call-graph node identifier, ``<module_rel>::<qualname>``."""
        return f"{self.module_rel}::{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition plus its resolved bases."""

    node: ast.ClassDef
    module_rel: str
    name: str
    base_refs: List[SymbolRef] = field(default_factory=list)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Unique id for hierarchy bookkeeping."""
        return f"{self.module_rel}::{self.name}"


@dataclass
class ModuleInfo:
    """Parsed symbol table for one module."""

    ctx: FileContext
    modname: str  #: dotted module name, e.g. ``repro.nn.attention``
    is_package: bool
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> dotted target ("repro.autograd.Tensor" style)
    imports: Dict[str, str] = field(default_factory=dict)


def _module_name(rel: str) -> Tuple[str, bool]:
    """Dotted module name for a report-relative path, plus package-ness.

    ``src/repro/nn/attention.py`` -> ``("repro.nn.attention", False)``;
    ``src/repro/nn/__init__.py`` -> ``("repro.nn", True)``.  A leading
    ``src/`` component is dropped so the dotted names match import sites.
    """
    parts = rel.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if not parts:
        return rel, False
    last = parts[-1]
    if last == "__init__.py":
        return ".".join(parts[:-1]), True
    if last.endswith(".py"):
        parts[-1] = last[: -len(".py")]
    return ".".join(parts), False


class ProjectDataflow:
    """Whole-project symbol, hierarchy and call-graph index.

    Build once per lint run with :meth:`build`; rules query it read-only.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  #: keyed by rel path
        self.by_modname: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}  #: keyed by node id
        self.edges: Dict[str, Set[str]] = {}
        self.tensor_class: Optional[ClassInfo] = None
        self._subclasses: Optional[Dict[str, List[ClassInfo]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: ProjectContext) -> "ProjectDataflow":
        """Index every parsed file of the project and build the call graph."""
        flow = cls()
        for ctx in project.files:
            flow._index_module(ctx)
        flow._locate_tensor_class()
        for info in flow.modules.values():
            flow._collect_functions(info)
        for fn in list(flow.functions.values()):
            flow.edges[fn.node_id] = flow._edges_of(fn)
        return flow

    def _index_module(self, ctx: FileContext) -> None:
        modname, is_package = _module_name(ctx.rel)
        info = ModuleInfo(ctx=ctx, modname=modname, is_package=is_package)
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef):
                info.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                cinfo = ClassInfo(node=node, module_rel=ctx.rel, name=node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        cinfo.methods[item.name] = item
                info.classes[node.name] = cinfo
        info.imports = self._module_imports(info)
        self.modules[ctx.rel] = info
        self.by_modname[modname] = info

    def _module_imports(self, info: ModuleInfo) -> Dict[str, str]:
        """Local name -> dotted target, with relative imports made absolute."""
        imports: Dict[str, str] = {}
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    imports[local] = item.name if item.asname else item.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = info.modname.split(".") if info.modname else []
                    # For a plain module, level 1 is the containing package;
                    # for a package __init__, level 1 is the package itself.
                    drop = node.level if not info.is_package else node.level - 1
                    anchor = parts[: len(parts) - drop] if drop else parts
                    base = ".".join(anchor + ([base] if base else []))
                for item in node.names:
                    if item.name == "*":
                        continue
                    imports[item.asname or item.name] = (
                        f"{base}.{item.name}" if base else item.name
                    )
        return imports

    def _locate_tensor_class(self) -> None:
        """Find the project's Tensor class (autograd engine), if present."""
        best: Optional[ClassInfo] = None
        for info in self.modules.values():
            cinfo = info.classes.get("Tensor")
            if cinfo is None:
                continue
            # Prefer the definition inside an autograd package over re-uses.
            if best is None or "autograd" in info.modname:
                best = cinfo
        self.tensor_class = best

    def _collect_functions(self, info: ModuleInfo) -> None:
        for name, node in info.functions.items():
            fi = FunctionInfo(node=node, module_rel=info.ctx.rel, qualname=name)
            self.functions[fi.node_id] = fi
        for cname, cinfo in info.classes.items():
            cinfo.base_refs = [
                ref
                for ref in (self._resolve_base(info, b) for b in cinfo.node.bases)
                if ref is not None
            ]
            for mname, mnode in cinfo.methods.items():
                fi = FunctionInfo(
                    node=mnode, module_rel=info.ctx.rel, qualname=f"{cname}.{mname}"
                )
                self.functions[fi.node_id] = fi

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def _resolve_base(self, info: ModuleInfo, node: ast.AST) -> Optional[SymbolRef]:
        dotted = _dotted(node)
        if dotted is None:
            return None
        return self.resolve(info, dotted)

    def resolve(self, info: ModuleInfo, dotted: str, _depth: int = 0) -> Optional[SymbolRef]:
        """Resolve a dotted name used in ``info`` to a project symbol.

        Follows import aliases, then package ``__init__`` re-export chains
        (``from .tensor import Tensor``) up to a fixed depth.  Returns None
        for anything that leaves the project (numpy, stdlib, ...).
        """
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        head, _, rest = dotted.partition(".")
        # Local definition wins over imports (shadowing).
        if not rest:
            if head in info.functions:
                return SymbolRef("function", info.ctx.rel, head)
            if head in info.classes:
                return SymbolRef("class", info.ctx.rel, head)
        target = info.imports.get(head)
        if target is None:
            if rest:
                # "module.attr" where module itself is a project module
                # referenced by its dotted name is rare; give up.
                return None
            return None
        full = f"{target}.{rest}" if rest else target
        return self._resolve_absolute(full, _depth)

    def _resolve_absolute(self, dotted: str, _depth: int) -> Optional[SymbolRef]:
        """Resolve an absolute dotted path against the module table."""
        # Longest-prefix match: find the module, the remainder is the symbol.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            modname = ".".join(parts[:cut])
            info = self.by_modname.get(modname)
            if info is None:
                continue
            remainder = parts[cut:]
            if not remainder:
                return None  # a module itself, not a symbol
            symbol = remainder[0]
            if symbol in info.functions:
                return SymbolRef("function", info.ctx.rel, symbol)
            if symbol in info.classes:
                return SymbolRef("class", info.ctx.rel, symbol)
            # Re-export chain through this module's imports.
            reexport = info.imports.get(symbol)
            if reexport is not None:
                tail = ".".join([reexport] + remainder[1:])
                return self._resolve_absolute(tail, _depth + 1)
            return None
        return None

    def class_info(self, ref: SymbolRef) -> Optional[ClassInfo]:
        """ClassInfo for a resolved class reference."""
        info = self.modules.get(ref.module_rel)
        if info is None:
            return None
        return info.classes.get(ref.name)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def mro(self, cinfo: ClassInfo) -> List[ClassInfo]:
        """Approximate MRO: subclass-first depth-first walk, deduplicated."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(c: ClassInfo) -> None:
            if c.key in seen:
                return
            seen.add(c.key)
            out.append(c)
            for ref in c.base_refs:
                base = self.class_info(ref)
                if base is not None:
                    visit(base)

        visit(cinfo)
        return out

    def find_method(self, cinfo: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look a method up through the MRO; None when absent everywhere."""
        for klass in self.mro(cinfo):
            node = klass.methods.get(name)
            if node is not None:
                return FunctionInfo(
                    node=node,
                    module_rel=klass.module_rel,
                    qualname=f"{klass.name}.{name}",
                )
        return None

    def attr_types(self, cinfo: ClassInfo) -> Dict[str, ClassInfo]:
        """``self.<attr>`` -> instantiated class, inferred from ``__init__``.

        Walks every ``__init__`` in the MRO.  ``self.x = SomeClass(...)``
        binds directly; ``self.x = factory(...)`` binds to every class the
        factory can return (simple ``return SomeClass(...)`` bodies only).
        An annotated ``self.x: Ann = ...`` binds to the first project class
        named in ``Ann``, so ``List[Base]`` types ``x`` (and, for callers
        iterating it, its items) as ``Base``.
        """
        out: Dict[str, ClassInfo] = {}
        for klass in reversed(self.mro(cinfo)):  # subclass assignments win
            init = klass.methods.get("__init__")
            if init is None:
                continue
            module = self.modules.get(klass.module_rel)
            if module is None:
                continue
            for node in ast.walk(init):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    declared = self._annotation_class(module, node.annotation)
                    if (
                        declared is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        out[target.attr] = declared
                    continue
                if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                    continue
                value_classes = self._call_result_classes(module, node.value)
                if not value_classes:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        # Multiple candidates (factory): keep the first but
                        # record all for call-graph edges via _factory_edges.
                        out[target.attr] = value_classes[0]
        return out

    def _annotation_class(self, module: ModuleInfo, annotation: ast.AST) -> Optional[ClassInfo]:
        """The first project class an annotation names (``List[Shard]`` -> Shard)."""
        for node in ast.walk(annotation):
            dotted = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            ref = self.resolve(module, dotted) if dotted else None
            if ref is not None and ref.kind == "class":
                return self.class_info(ref)
        return None

    def overrides(self, cinfo: ClassInfo, name: str) -> List[FunctionInfo]:
        """Every subclass's own definition of method ``name`` (virtual dispatch).

        A call on a value typed as ``cinfo`` may land on any of them, so
        callers that resolve such a call add these to the base lookup.
        """
        if self._subclasses is None:
            self._subclasses = {}
            for module in self.modules.values():
                for klass in module.classes.values():
                    for base in self.mro(klass)[1:]:
                        self._subclasses.setdefault(base.key, []).append(klass)
        return [
            FunctionInfo(
                node=klass.methods[name],
                module_rel=klass.module_rel,
                qualname=f"{klass.name}.{name}",
            )
            for klass in self._subclasses.get(cinfo.key, ())
            if name in klass.methods
        ]

    def _call_result_classes(self, module: ModuleInfo, call: ast.Call) -> List[ClassInfo]:
        """Classes a call expression may construct (directly or via factory)."""
        dotted = _dotted(call.func)
        if dotted is None:
            return []
        ref = self.resolve(module, dotted)
        if ref is None:
            return []
        if ref.kind == "class":
            cinfo = self.class_info(ref)
            return [cinfo] if cinfo is not None else []
        # Factory function: collect classes from `return SomeClass(...)`.
        fmod = self.modules.get(ref.module_rel)
        fnode = fmod.functions.get(ref.name) if fmod is not None else None
        if fnode is None:
            return []
        results: List[ClassInfo] = []
        for node in ast.walk(fnode):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                inner = _dotted(node.value.func)
                if inner is None:
                    continue
                iref = self.resolve(fmod, inner)
                if iref is not None and iref.kind == "class":
                    cinfo = self.class_info(iref)
                    if cinfo is not None:
                        results.append(cinfo)
        return results

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _tensor_method_node(self, name: str) -> Optional[str]:
        tc = self.tensor_class
        if tc is None or name not in tc.methods:
            return None
        return f"{tc.module_rel}::Tensor.{name}"

    def _instance_call_nodes(self, cinfo: ClassInfo) -> List[str]:
        """Nodes reached by *calling* an instance of ``cinfo``."""
        nodes = []
        for mname in ("__call__", "forward"):
            fi = self.find_method(cinfo, mname)
            if fi is not None:
                nodes.append(fi.node_id)
        return nodes

    def _edges_of(self, fn: FunctionInfo) -> Set[str]:
        module = self.modules[fn.module_rel]
        class_name = fn.qualname.split(".")[0] if "." in fn.qualname else None
        cinfo = module.classes.get(class_name) if class_name else None
        attr_types = self.attr_types(cinfo) if cinfo is not None else {}

        # Local variables bound to class instances: `layer = Linear(...)`.
        local_types: Dict[str, ClassInfo] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                classes = self._call_result_classes(module, node.value)
                if classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_types[target.id] = classes[0]

        edges: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                edges |= self._call_edges(node, module, cinfo, attr_types, local_types)
            elif isinstance(node, ast.BinOp):
                method = OPERATOR_METHODS.get(type(node.op))
                if method is not None:
                    target = self._tensor_method_node(method)
                    if target is not None:
                        edges.add(target)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                target = self._tensor_method_node("__neg__")
                if target is not None:
                    edges.add(target)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                target = self._tensor_method_node("__getitem__")
                if target is not None:
                    edges.add(target)
        edges.discard(fn.node_id)
        return edges

    def _call_edges(
        self,
        node: ast.Call,
        module: ModuleInfo,
        cinfo: Optional[ClassInfo],
        attr_types: Dict[str, ClassInfo],
        local_types: Dict[str, ClassInfo],
    ) -> Set[str]:
        edges: Set[str] = set()
        func = node.func

        # self.<attr>(...) — a method or a stored layer instance.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and cinfo is not None
        ):
            fi = self.find_method(cinfo, func.attr)
            if fi is not None:
                edges.add(fi.node_id)
                return edges
            attr_class = attr_types.get(func.attr)
            if attr_class is not None:
                edges.update(self._instance_call_nodes(attr_class))
                return edges
            return edges

        # super().__init__(...) and other super() dispatch.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and cinfo is not None
        ):
            for klass in self.mro(cinfo)[1:]:
                mnode = klass.methods.get(func.attr)
                if mnode is not None:
                    edges.add(f"{klass.module_rel}::{klass.name}.{func.attr}")
                    break
            return edges

        # Plain name or dotted call: local var instance, project symbol,
        # or a module-qualified project function.
        dotted = _dotted(func)
        if dotted is not None:
            head = dotted.split(".")[0]
            if "." not in dotted and head in local_types:
                edges.update(self._instance_call_nodes(local_types[head]))
                return edges
            ref = self.resolve(module, dotted)
            if ref is not None:
                if ref.kind == "function":
                    edges.add(f"{ref.module_rel}::{ref.name}")
                else:
                    ccls = self.class_info(ref)
                    if ccls is not None:
                        init = self.find_method(ccls, "__init__")
                        if init is not None:
                            edges.add(init.node_id)
                return edges

        # <expr>.method(...) where the method name is a Tensor op.
        if isinstance(func, ast.Attribute) and func.attr in TENSOR_OP_METHODS:
            target = self._tensor_method_node(func.attr)
            if target is not None:
                edges.add(target)
        return edges

    # ------------------------------------------------------------------
    # Reachability and roots
    # ------------------------------------------------------------------
    def forward_roots(self) -> List[FunctionInfo]:
        """Every method named like a forward path, on any class."""
        roots = []
        for info in self.modules.values():
            for cinfo in info.classes.values():
                for name in FORWARD_ROOT_METHODS:
                    node = cinfo.methods.get(name)
                    if node is not None:
                        roots.append(
                            FunctionInfo(
                                node=node,
                                module_rel=info.ctx.rel,
                                qualname=f"{cinfo.name}.{name}",
                            )
                        )
        return roots

    def reachable_from(self, roots: Sequence[Union[str, FunctionInfo]]) -> Set[str]:
        """Transitive closure of the call graph from the given node ids."""
        frontier = [r.node_id if isinstance(r, FunctionInfo) else r for r in roots]
        seen: Set[str] = set()
        while frontier:
            nid = frontier.pop()
            if nid in seen or nid not in self.functions:
                continue
            seen.add(nid)
            frontier.extend(self.edges.get(nid, ()))
        return seen

    def reachable_forward_graph(self) -> Set[str]:
        """Node ids reachable from any model forward method."""
        return self.reachable_from(self.forward_roots())

    # ------------------------------------------------------------------
    # Tape-op catalogue
    # ------------------------------------------------------------------
    def tape_ops(self) -> List[Tuple[FunctionInfo, bool]]:
        """Every function/method that creates a tape node via ``_make``.

        Returns ``(function, has_backward_closure)`` pairs, where the
        closure is an inner ``def backward*`` or a lambda handed to
        ``_make`` — the hand-derived gradient D001 audits.
        """
        ops: List[Tuple[FunctionInfo, bool]] = []
        for fi in self.functions.values():
            makes = [
                n
                for n in ast.walk(fi.node)
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "_make"
            ]
            if not makes:
                continue
            has_closure = any(
                isinstance(n, ast.FunctionDef) and n.name.startswith("backward")
                for n in ast.walk(fi.node)
                if n is not fi.node
            ) or any(
                any(isinstance(a, ast.Lambda) for a in m.args) for m in makes
            )
            ops.append((fi, has_closure))
        return ops
