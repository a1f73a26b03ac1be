"""Symbolic shape checker for layer wiring (rule S001).

Mis-wired layer dimensions — a ``Linear`` whose output does not match the
LSTM input, an MLP head sized for the wrong hidden dimension — usually
survive unit tests because tests pick configs where the wrong numbers
coincide.  This module catches them *statically*: it abstractly interprets
module ``__init__`` bodies to learn each layer's symbolic in/out feature
dimension (polynomials over ``config.*`` fields), then walks the forward
methods tracking the symbolic last-axis dimension of every local, checking
producer/consumer dimensions at each layer call — without running the
model.

Boolean config flags that gate wiring (e.g. ``config.matching``) are
branch-split: every combination is checked as its own scenario, so the
TMN-NM ablation path is verified alongside the full model.

Unknown constructs degrade to "unknown dimension" and suppress checking
rather than guessing, so the checker is conservative: it only reports
mismatches between two *fully resolved* symbolic dimensions.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .violations import Violation

__all__ = ["SymDim", "LayerSpec", "check_module_wiring"]

# ----------------------------------------------------------------------
# Symbolic dimensions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymDim:
    """A linear/multilinear polynomial over named dimension symbols.

    Represented canonically as monomial → integer coefficient, where a
    monomial is a sorted tuple of symbol names and ``()`` is the constant
    term.  Two dimensions are equal iff their canonical forms match, which
    is what the wiring check compares.
    """

    terms: Tuple[Tuple[Tuple[str, ...], int], ...]

    @staticmethod
    def const(value: int) -> "SymDim":
        """The constant dimension ``value``."""
        return SymDim._from_dict({(): int(value)})

    @staticmethod
    def sym(name: str) -> "SymDim":
        """An atomic named dimension such as ``config.hidden_dim``."""
        return SymDim._from_dict({(name,): 1})

    @staticmethod
    def _from_dict(d: Dict[Tuple[str, ...], int]) -> "SymDim":
        cleaned = {m: c for m, c in d.items() if c != 0}
        return SymDim(tuple(sorted(cleaned.items())))

    def _dict(self) -> Dict[Tuple[str, ...], int]:
        return dict(self.terms)

    def __add__(self, other: "SymDim") -> "SymDim":
        out = self._dict()
        for mono, coeff in other.terms:
            out[mono] = out.get(mono, 0) + coeff
        return SymDim._from_dict(out)

    def __sub__(self, other: "SymDim") -> "SymDim":
        out = self._dict()
        for mono, coeff in other.terms:
            out[mono] = out.get(mono, 0) - coeff
        return SymDim._from_dict(out)

    def __mul__(self, other: "SymDim") -> "SymDim":
        out: Dict[Tuple[str, ...], int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return SymDim._from_dict(out)

    def floordiv(self, divisor: int) -> Optional["SymDim"]:
        """Exact division by an integer; None when any coefficient resists."""
        if divisor == 0:
            return None
        if any(coeff % divisor for _, coeff in self.terms):
            return None
        return SymDim._from_dict({m: c // divisor for m, c in self.terms})

    def as_const(self) -> Optional[int]:
        """The integer value when this dimension is a pure constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def render(self) -> str:
        """Readable form, e.g. ``2*config.embed_dim + 1``."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            if not mono:
                parts.append(str(coeff))
            else:
                stem = "*".join(mono)
                parts.append(stem if coeff == 1 else f"{coeff}*{stem}")
        return " + ".join(parts)


#: A tracked value: a symbolic last-axis dimension, a tuple of values
#: (for multi-output calls), or None meaning "unknown".
Value = Union[SymDim, Tuple, None]


# ----------------------------------------------------------------------
# Layer catalogue
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """What the checker knows about one constructed layer attribute."""

    kind: str  #: linear | rnn | cell_pair | cell | mlp | attention | activation
    in_dim: Optional[SymDim]
    out_dim: Optional[SymDim]
    lineno: int


def _constructor_spec(name: str, args: List[Value], lineno: int) -> Optional[LayerSpec]:
    """LayerSpec for a recognised constructor call, else None."""

    def arg(i: int) -> Optional[SymDim]:
        if i < len(args) and isinstance(args[i], SymDim):
            return args[i]
        return None

    if name == "Linear":
        return LayerSpec("linear", arg(0), arg(1), lineno)
    if name in ("LSTM", "GRU"):
        return LayerSpec("rnn", arg(0), arg(1), lineno)
    if name == "make_rnn":  # make_rnn(backbone, input_size, hidden_size, rng)
        return LayerSpec("rnn", arg(1), arg(2), lineno)
    if name == "LSTMCell":
        return LayerSpec("cell_pair", arg(0), arg(1), lineno)
    if name == "GRUCell":
        return LayerSpec("cell", arg(0), arg(1), lineno)
    if name == "SelfAttention":
        return LayerSpec("attention", arg(0), arg(0), lineno)
    if name in ("Activation", "LeakyReLU", "ReLU", "Sigmoid", "Tanh"):
        return LayerSpec("activation", None, None, lineno)
    return None


def _mlp_spec(node: ast.Call, interp: "_Interpreter", env, lineno: int) -> Optional[LayerSpec]:
    if not node.args or not isinstance(node.args[0], (ast.List, ast.Tuple)):
        return None
    sizes = [interp.eval_dim(e, env) for e in node.args[0].elts]
    if not sizes:
        return None
    first = sizes[0] if isinstance(sizes[0], SymDim) else None
    last = sizes[-1] if isinstance(sizes[-1], SymDim) else None
    return LayerSpec("mlp", first, last, lineno)


# ----------------------------------------------------------------------
# Abstract interpretation
# ----------------------------------------------------------------------


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _config_flag(node: ast.AST) -> Optional[str]:
    """The flag name when ``node`` is ``self.config.<name>`` (or ``config.<name>``)."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Attribute) and value.attr == "config" and isinstance(value.value, ast.Name):
        return node.attr
    if isinstance(value, ast.Name) and value.id == "config":
        return node.attr
    return None


@dataclass
class _Scenario:
    """One assignment of truth values to the wiring-gating config flags."""

    flags: Dict[str, bool] = field(default_factory=dict)

    def describe(self) -> str:
        if not self.flags:
            return ""
        body = ", ".join(f"config.{k}={v}" for k, v in sorted(self.flags.items()))
        return f" [scenario: {body}]"


class _Interpreter:
    """Walks one class hierarchy under one scenario, collecting violations.

    ``chain`` is the class's approximate MRO, subclass first, each entry a
    ``(classdef, path)`` pair; methods are looked up subclass-first, so an
    overriding ``lstm_input_dim`` in a baseline is seen by the base-class
    ``__init__`` it parameterises.  ``resolver`` (optional) maps a free
    helper-function name to its ``(FunctionDef, path)`` so dimensions
    survive interprocedural calls into other modules.
    """

    _MAX_DEPTH = 4

    def __init__(
        self,
        chain: Sequence[Tuple[ast.ClassDef, str]],
        scenario: _Scenario,
        resolver=None,
    ):
        self.chain = list(chain)
        self.classdef = self.chain[0][0]
        self.scenario = scenario
        self.resolver = resolver
        self.attrs: Dict[str, Union[LayerSpec, Value]] = {}
        self.violations: List[Violation] = []
        # Subclass-first merge: the first definition of a name wins.
        self._methods: Dict[str, Tuple[ast.FunctionDef, str]] = {}
        for classdef, path in self.chain:
            for node in classdef.body:
                if isinstance(node, ast.FunctionDef) and node.name not in self._methods:
                    self._methods[node.name] = (node, path)
        self._return_cache: Dict[str, Value] = {}
        self._analyzing: List[str] = []
        # Violations cite the file defining the method being interpreted.
        self._path_stack: List[str] = [self.chain[0][1]]
        # Local flag aliases: names assigned from self.config.<flag>.
        self._flag_aliases: Dict[str, str] = {}

    @property
    def path(self) -> str:
        return self._path_stack[-1]

    # -- truth of boolean config tests ---------------------------------
    def _truth(self, test: ast.AST) -> Optional[bool]:
        flag = _config_flag(test)
        if flag is None and isinstance(test, ast.Name):
            flag = self._flag_aliases.get(test.id)
        if flag is not None and flag in self.scenario.flags:
            return self.scenario.flags[flag]
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = self._truth(test.operand)
            return None if inner is None else not inner
        return None

    # -- dimension evaluation (integer-valued expressions) --------------
    def eval_dim(self, node: ast.AST, env: Optional[Dict[str, Value]] = None) -> Optional[SymDim]:
        """Symbolic integer value of an expression, or None."""
        env = env if env is not None else {}
        if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
            return SymDim.const(node.value)
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            return value if isinstance(value, SymDim) else None
        if isinstance(node, ast.Attribute):
            flag = _config_flag(node)
            if flag is not None:
                return SymDim.sym(f"config.{flag}")
            # self.<attr> holding a plain symbolic int (e.g. self.output_dim)
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                value = self.attrs.get(node.attr)
                return value if isinstance(value, SymDim) else None
            return None
        if isinstance(node, ast.BinOp):
            left = self.eval_dim(node.left, env)
            right = self.eval_dim(node.right, env)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                divisor = right.as_const()
                return left.floordiv(divisor) if divisor is not None else None
            return None
        if isinstance(node, ast.IfExp):
            truth = self._truth(node.test)
            if truth is None:
                return None
            return self.eval_dim(node.body if truth else node.orelse, env)
        if isinstance(node, ast.Call):
            # self.<method>() used as a size expression, e.g. the base
            # __init__ sizing the LSTM with the overridable lstm_input_dim().
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in self._methods
            ):
                value = self.run_method(func.attr)
                return value if isinstance(value, SymDim) else None
        return None

    # -- __init__ interpretation ----------------------------------------
    def run_init(self) -> None:
        """Interpret the ``__init__`` chain to learn layer specs and attrs."""
        self._run_init_from(0)

    def _run_init_from(self, start: int) -> None:
        """Run the first ``__init__`` at or after ``start`` in the MRO.

        ``super().__init__(...)`` inside it continues the chain from the
        next index, so base-class layer construction (which may call
        subclass-overridden sizing methods) lands in the shared ``attrs``.
        """
        for idx in range(start, len(self.chain)):
            classdef, path = self.chain[idx]
            init = next(
                (
                    n
                    for n in classdef.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            env: Dict[str, Value] = {}
            self._path_stack.append(path)
            try:
                self._exec_block(init.body, env, in_init=True, init_index=idx)
            finally:
                self._path_stack.pop()
            return

    @staticmethod
    def _is_super_init(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        )

    def _layer_from_call(self, node: ast.Call, env: Dict[str, Value]) -> Optional[LayerSpec]:
        name = _call_name(node.func)
        if name is None:
            return None
        if name == "MLP":
            return _mlp_spec(node, self, env, node.lineno)
        args: List[Value] = [self.eval_dim(a, env) for a in node.args]
        return _constructor_spec(name, args, node.lineno)

    def _exec_block(
        self,
        body: Sequence[ast.stmt],
        env: Dict[str, Value],
        in_init: bool,
        init_index: Optional[int] = None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self._exec_assign(stmt, env, in_init)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                fake = ast.Assign(targets=[stmt.target], value=stmt.value)
                ast.copy_location(fake, stmt)
                self._exec_assign(fake, env, in_init)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = None
            elif isinstance(stmt, ast.If):
                truth = self._truth(stmt.test)
                if truth is True:
                    self._exec_block(stmt.body, env, in_init, init_index)
                elif truth is False:
                    self._exec_block(stmt.orelse, env, in_init, init_index)
                else:
                    # Unknown branch: run both on copies, keep agreements.
                    env_a = dict(env)
                    env_b = dict(env)
                    self._exec_block(stmt.body, env_a, in_init, init_index)
                    self._exec_block(stmt.orelse, env_b, in_init, init_index)
                    for key in set(env_a) | set(env_b):
                        val_a, val_b = env_a.get(key), env_b.get(key)
                        env[key] = val_a if val_a == val_b else None
            elif isinstance(stmt, (ast.Expr, ast.Return)):
                if isinstance(stmt, ast.Expr):
                    if (
                        in_init
                        and init_index is not None
                        and self._is_super_init(stmt.value)
                    ):
                        self._run_init_from(init_index + 1)
                    else:
                        self._value_of(stmt.value, env)
            # for/while/with/try bodies are walked conservatively
            elif isinstance(stmt, (ast.For, ast.While, ast.With, ast.Try)):
                inner = list(getattr(stmt, "body", []))
                self._exec_block(inner, env, in_init, init_index)

    def _assign_value(self, stmt: ast.Assign, env: Dict[str, Value], in_init: bool) -> Value:
        node = stmt.value
        if in_init and isinstance(node, ast.Call):
            spec = self._layer_from_call(node, env)
            if spec is not None:
                return spec
        if in_init and isinstance(node, ast.IfExp):
            truth = self._truth(node.test)
            if truth is not None:
                picked = node.body if truth else node.orelse
                if isinstance(picked, ast.Call):
                    spec = self._layer_from_call(picked, env)
                    if spec is not None:
                        return spec
        dim = self.eval_dim(node, env)
        if dim is not None:
            return dim
        if not in_init:
            return self._value_of(node, env)
        return None

    def _exec_assign(self, stmt: ast.Assign, env: Dict[str, Value], in_init: bool) -> None:
        value = self._assign_value(stmt, env, in_init)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                # Track local aliases of boolean config flags for branch tests.
                flag = _config_flag(stmt.value)
                if flag is not None:
                    self._flag_aliases[target.id] = flag
                env[target.id] = value
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
                self.attrs[target.attr] = value
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._unpack(target, value, env)

    def _unpack(self, target: ast.AST, value: Value, env: Dict[str, Value]) -> None:
        """Bind a (possibly nested) tuple target element-wise."""
        elements = target.elts
        parts: Sequence[Value]
        if isinstance(value, tuple) and len(value) == len(elements):
            parts = value
        else:
            parts = [None] * len(elements)
        for element, part in zip(elements, parts):
            if isinstance(element, ast.Name):
                env[element.id] = part
            elif isinstance(element, (ast.Tuple, ast.List)):
                self._unpack(element, part, env)
            elif (
                isinstance(element, ast.Attribute)
                and isinstance(element.value, ast.Name)
                and element.value.id == "self"
            ):
                self.attrs[element.attr] = part

    # -- forward-method interpretation ----------------------------------
    def run_method(self, name: str) -> Value:
        """Interpret one method, recording violations; returns its value."""
        if name in self._return_cache:
            return self._return_cache[name]
        entry = self._methods.get(name)
        if entry is None or name in self._analyzing or len(self._analyzing) >= self._MAX_DEPTH:
            return None
        method, path = entry
        self._analyzing.append(name)
        self._path_stack.append(path)
        params = [arg.arg for arg in method.args.args if arg.arg != "self"]
        env: Dict[str, Value] = {param: None for param in params}
        if name == "head" and params:
            # head(rows) maps rows gathered from the per-step states that
            # forward_pair returns (its first output when it returns a pair).
            rows = self.run_method("forward_pair")
            rows = rows[0] if isinstance(rows, tuple) and rows else rows
            env[params[0]] = rows if isinstance(rows, SymDim) else None
        returns: List[Value] = []
        try:
            self._exec_method_block(method.body, env, returns)
        finally:
            self._path_stack.pop()
            self._analyzing.pop()
        result: Value = None
        if returns:
            first = returns[0]
            if all(r == first for r in returns):
                result = first
        self._return_cache[name] = result
        return result

    def _exec_method_block(self, body: Sequence[ast.stmt], env: Dict[str, Value], returns: List[Value]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self._exec_assign(stmt, env, in_init=False)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = None
            elif isinstance(stmt, ast.If):
                truth = self._truth(stmt.test)
                if truth is True:
                    self._exec_method_block(stmt.body, env, returns)
                elif truth is False:
                    self._exec_method_block(stmt.orelse, env, returns)
                else:
                    env_a = dict(env)
                    env_b = dict(env)
                    self._exec_method_block(stmt.body, env_a, returns)
                    self._exec_method_block(stmt.orelse, env_b, returns)
                    for key in set(env_a) | set(env_b):
                        val_a, val_b = env_a.get(key), env_b.get(key)
                        env[key] = val_a if val_a == val_b else None
            elif isinstance(stmt, ast.Return):
                returns.append(self._value_of(stmt.value, env) if stmt.value else None)
            elif isinstance(stmt, ast.Expr):
                self._value_of(stmt.value, env)
            elif isinstance(stmt, (ast.For, ast.While, ast.With, ast.Try)):
                self._exec_method_block(list(getattr(stmt, "body", [])), env, returns)

    # -- expression values ----------------------------------------------
    def _value_of(self, node: ast.AST, env: Dict[str, Value]) -> Value:
        """Symbolic last-axis dimension (or tuple of values) of an expression."""
        if node is None:
            return None
        dim = self.eval_dim(node, env)
        if dim is not None:
            return dim
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Tuple):
            return tuple(self._value_of(e, env) for e in node.elts)
        if isinstance(node, ast.Subscript):
            return self._subscript_value(node, env)
        if isinstance(node, ast.Call):
            return self._call_value(node, env)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            # x @ w: the result's last axis is w's last axis.
            right = self._value_of(node.right, env)
            return right if isinstance(right, SymDim) else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            left = self._value_of(node.left, env)
            right = self._value_of(node.right, env)
            if isinstance(left, SymDim) and isinstance(right, SymDim):
                if left == right:
                    return left
                if right.as_const() == 1:
                    return left
                if left.as_const() == 1:
                    return right
            return None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                value = self.attrs.get(node.attr)
                return value if not isinstance(value, LayerSpec) else None
        return None

    def _subscript_value(self, node: ast.Subscript, env: Dict[str, Value]) -> Value:
        value = self._value_of(node.value, env)
        index = node.slice
        if isinstance(value, tuple):
            if isinstance(index, ast.Constant) and isinstance(index.value, int):
                if -len(value) <= index.value < len(value):
                    return value[index.value]
            return None
        if isinstance(value, SymDim):
            # Slicing that keeps the last axis intact preserves the dim:
            # x[:, t, :] (last element is a full slice) or x[a:b].
            if isinstance(index, ast.Tuple) and index.elts:
                last = index.elts[-1]
                if isinstance(last, ast.Slice):
                    return value
                return None
            if isinstance(index, ast.Slice):
                return value
        return None

    def _call_value(self, node: ast.Call, env: Dict[str, Value]) -> Value:
        func = node.func
        # self.<attr>(...) — a layer call or a method call.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "self":
            spec = self.attrs.get(func.attr)
            if isinstance(spec, LayerSpec):
                return self._apply_layer(func.attr, spec, node, env)
            if func.attr in self._methods:
                return self.run_method(func.attr)
            return None
        name = _call_name(func)
        args = node.args
        if name == "concat":
            return self._concat_value(node, env)
        if name in ("cross_match",):
            # ((M_a, P_a), (M_b, P_b)): each M keeps its side's last axis.
            sides = [self._value_of(arg, env) for arg in args[:2]]
            return tuple((dim if isinstance(dim, SymDim) else None, None) for dim in sides)
        if name == "gather_last" and args:
            value = self._value_of(args[0], env)
            return value if isinstance(value, SymDim) else None
        if name == "where" and len(args) >= 3:
            a = self._value_of(args[1], env)
            b = self._value_of(args[2], env)
            if isinstance(a, SymDim) and a == b:
                return a
            return a if isinstance(a, SymDim) and b is None else (b if isinstance(b, SymDim) and a is None else None)
        if name == "stack":
            # stack introduces a new axis; the last axis survives unless the
            # new axis is appended at the end (axis=-1), which we treat as
            # unknown.
            axis = self._axis_of(node)
            if axis is not None and axis != -1:
                if args and isinstance(args[0], (ast.List, ast.Tuple)) and args[0].elts:
                    first = self._value_of(args[0].elts[0], env)
                    return first if isinstance(first, SymDim) else None
            return None
        # Free helper function resolved across modules (e.g. gather_last,
        # match_pattern): bind the call args and interpret its returns.
        if self.resolver is not None and isinstance(func, ast.Name):
            resolved = self.resolver(func.id)
            if resolved is not None:
                return self._helper_value(resolved[0], resolved[1], node, env)
        return None

    def _helper_value(
        self,
        fnode: ast.FunctionDef,
        path: str,
        call: ast.Call,
        env: Dict[str, Value],
    ) -> Value:
        """Value of a resolved free-function call, by interpreting its body."""
        key = f"helper:{fnode.name}"
        if key in self._analyzing or len(self._analyzing) >= self._MAX_DEPTH:
            return None
        params = [a.arg for a in fnode.args.args]
        inner_env: Dict[str, Value] = {p: None for p in params}
        for param, arg in zip(params, call.args):
            inner_env[param] = self._value_of(arg, env)
        for kw in call.keywords:
            if kw.arg in inner_env:
                inner_env[kw.arg] = self._value_of(kw.value, env)
        self._analyzing.append(key)
        self._path_stack.append(path)
        returns: List[Value] = []
        try:
            self._exec_method_block(fnode.body, inner_env, returns)
        finally:
            self._path_stack.pop()
            self._analyzing.pop()
        if returns:
            first = returns[0]
            if all(r == first for r in returns):
                return first
        return None

    def _axis_of(self, node: ast.Call) -> Optional[int]:
        for kw in node.keywords:
            if kw.arg == "axis" and isinstance(kw.value, ast.Constant):
                return kw.value.value if isinstance(kw.value.value, int) else None
            if kw.arg == "axis" and isinstance(kw.value, ast.UnaryOp):
                if isinstance(kw.value.op, ast.USub) and isinstance(kw.value.operand, ast.Constant):
                    return -kw.value.operand.value
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            value = node.args[1].value
            return value if isinstance(value, int) else None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.UnaryOp):
            unary = node.args[1]
            if isinstance(unary.op, ast.USub) and isinstance(unary.operand, ast.Constant):
                return -unary.operand.value
        return None

    def _concat_value(self, node: ast.Call, env: Dict[str, Value]) -> Value:
        axis = self._axis_of(node)
        if axis is None:
            axis = -1  # repro.autograd.concat defaults to the last axis
        if axis != -1:
            return None
        if not node.args or not isinstance(node.args[0], (ast.List, ast.Tuple)):
            return None
        total: Optional[SymDim] = SymDim.const(0)
        for element in node.args[0].elts:
            dim = self._value_of(element, env)
            if not isinstance(dim, SymDim):
                return None
            total = total + dim
        return total

    def _apply_layer(self, attr: str, spec: LayerSpec, node: ast.Call, env: Dict[str, Value]) -> Value:
        arg_value = self._value_of(node.args[0], env) if node.args else None
        in_dim = arg_value if isinstance(arg_value, SymDim) else None
        if in_dim is not None and spec.in_dim is not None and in_dim != spec.in_dim:
            self.violations.append(
                Violation(
                    path=self.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="S001",
                    message=(
                        f"`self.{attr}` (constructed at line {spec.lineno}) "
                        f"expects last-axis dimension {spec.in_dim.render()} "
                        f"but receives {in_dim.render()}"
                        f"{self.scenario.describe()}"
                    ),
                )
            )
        if spec.kind in ("linear", "mlp", "attention"):
            return spec.out_dim
        if spec.kind == "rnn":
            return (spec.out_dim, None)
        if spec.kind == "cell_pair":
            return (spec.out_dim, spec.out_dim)
        if spec.kind == "cell":
            return spec.out_dim
        if spec.kind == "activation":
            return arg_value
        return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

#: Methods interpreted as forward paths, in addition to plain ``forward``.
_FORWARD_METHODS = ("forward", "forward_pair", "head", "encode_side", "step_features", "embed_points")

_MAX_FLAGS = 4


def _wiring_flags(classdef: ast.ClassDef) -> List[str]:
    """Config flags used as branch tests anywhere in the class."""
    flags = set()
    aliases: Dict[str, str] = {}
    for node in ast.walk(classdef):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            flag = _config_flag(node.value)
            if flag is not None:
                aliases[node.targets[0].id] = flag
    for node in ast.walk(classdef):
        test = None
        if isinstance(node, (ast.If, ast.IfExp)):
            test = node.test
        if test is None:
            continue
        flag = _config_flag(test)
        if flag is None and isinstance(test, ast.Name):
            flag = aliases.get(test.id)
        if flag is not None:
            flags.add(flag)
    return sorted(flags)


def check_module_wiring(
    classdef: ast.ClassDef,
    path: str,
    bases: Sequence[Tuple[ast.ClassDef, str]] = (),
    resolver=None,
) -> List[Violation]:
    """Check one class's layer wiring across every flag scenario.

    ``bases`` supplies the rest of the MRO (each a ``(classdef, path)``
    pair, nearest base first) so inherited ``__init__``/forward methods are
    interpreted with subclass overrides in effect; ``resolver`` resolves
    free helper-function names across modules (see
    :class:`repro.analysis.dataflow.ProjectDataflow`).  Both default to
    empty for single-file use.
    """
    chain = [(classdef, path)] + list(bases)
    flags = sorted({f for c, _ in chain for f in _wiring_flags(c)})[:_MAX_FLAGS]
    scenarios = (
        [_Scenario(dict(zip(flags, combo))) for combo in itertools.product((True, False), repeat=len(flags))]
        if flags
        else [_Scenario()]
    )
    violations: List[Violation] = []
    for scenario in scenarios:
        interp = _Interpreter(chain, scenario, resolver=resolver)
        interp.run_init()
        if not any(isinstance(v, LayerSpec) for v in interp.attrs.values()):
            continue
        for method in _FORWARD_METHODS:
            interp.run_method(method)
        violations.extend(interp.violations)
    return violations
